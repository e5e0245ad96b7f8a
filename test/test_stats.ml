open Gpu_sim
module I = Gpu_isa.Instr

let test_derived_metrics () =
  let s = Stats.create () in
  s.Stats.cycles <- 100;
  s.Stats.instructions <- 250;
  Alcotest.(check (float 1e-9)) "ipc" 2.5 (Stats.ipc s);
  s.Stats.resident_warp_cycles <- 300;
  s.Stats.warp_capacity_cycles <- 400;
  Alcotest.(check (float 1e-9)) "occupancy" 0.75 (Stats.achieved_occupancy s);
  let empty = Stats.create () in
  Alcotest.(check (float 1e-9)) "ipc of empty run" 0. (Stats.ipc empty);
  Alcotest.(check (float 1e-9)) "occupancy of empty run" 0.
    (Stats.achieved_occupancy empty)

let test_acquire_ratio () =
  let s = Stats.create () in
  Alcotest.(check (float 1e-9)) "no acquires -> 1.0" 1. (Stats.acquire_success_ratio s);
  s.Stats.acquire_execs <- 10;
  s.Stats.acquire_first_try <- 7;
  Alcotest.(check (float 1e-9)) "7/10" 0.7 (Stats.acquire_success_ratio s)

let test_stall_counters () =
  let s = Stats.create () in
  Stats.bump_stall s Stats.Stall_deps;
  Stats.bump_stall s Stats.Stall_deps;
  Stats.bump_stall s Stats.Stall_acquire;
  Alcotest.(check int) "deps" 2 (Stats.stall_count s Stats.Stall_deps);
  Alcotest.(check int) "acquire" 1 (Stats.stall_count s Stats.Stall_acquire);
  Alcotest.(check int) "untouched" 0 (Stats.stall_count s Stats.Stall_regs)

let test_store_traces () =
  let s = Stats.create () in
  Stats.record_store s ~cta:1 ~warp:0 I.Global 10 100;
  Stats.record_store s ~cta:0 ~warp:1 I.Shared 5 50;
  Stats.record_store s ~cta:1 ~warp:0 I.Global 11 101;
  let traces = Stats.store_traces s in
  Alcotest.(check int) "two warps" 2 (List.length traces);
  (match traces with
  | [ ((0, 1), [ (I.Shared, 5, 50) ]); ((1, 0), t) ] ->
      Alcotest.(check int) "issue order preserved" 2 (List.length t);
      Alcotest.(check bool) "ordered" true
        (t = [ (I.Global, 10, 100); (I.Global, 11, 101) ])
  | _ -> Alcotest.fail "unexpected trace structure")

let test_pc_trace () =
  let s = Stats.create () in
  s.Stats.pc_trace <- [ 3; 2; 1 ];
  Alcotest.(check (array int)) "oldest first" [| 1; 2; 3 |] (Stats.trace s)

let test_warp_instruction_counts () =
  let s = Stats.create () in
  Stats.record_warp_done s ~cta:1 ~warp:1 ~instructions:50;
  Stats.record_warp_done s ~cta:0 ~warp:0 ~instructions:40;
  Alcotest.(check (list (pair (pair int int) int))) "sorted"
    [ ((0, 0), 40); ((1, 1), 50) ]
    (Stats.warp_instruction_counts s)

(* The per-warp tables pack (CTA, warp, lane) into one int key: ids at
   their largest values must come back unchanged and in tuple order, and
   an id outside the packable range must be refused rather than alias. *)
let test_key_packing () =
  let s = Stats.create () in
  let ctas = [ Stats.max_cta; 0; Stats.max_cta - 1; 1 ] in
  let warps = [ Stats.max_warp; 0; 1 ] in
  let lanes = [ Stats.max_lane; 0; 31 ] in
  List.iter
    (fun cta ->
      List.iter
        (fun warp ->
          Stats.record_store s ~cta ~warp I.Global cta warp;
          Stats.record_warp_done s ~cta ~warp ~instructions:(warp + 1);
          List.iter
            (fun lane -> Stats.record_lane_store s ~cta ~warp ~lane I.Shared cta lane)
            lanes)
        warps)
    ctas;
  let pairs =
    List.sort compare
      (List.concat_map (fun c -> List.map (fun w -> (c, w)) warps) ctas)
  in
  Alcotest.(check (list (pair int int))) "store traces: ids round-trip in order"
    pairs
    (List.map fst (Stats.store_traces s));
  List.iter
    (fun ((cta, warp), trace) ->
      Alcotest.(check bool) "store trace belongs to its warp" true
        (trace = [ (I.Global, cta, warp) ]))
    (Stats.store_traces s);
  Alcotest.(check (list (pair (pair int int) int))) "warp counts: ids round-trip in order"
    (List.map (fun (c, w) -> ((c, w), w + 1)) pairs)
    (Stats.warp_instruction_counts s);
  let triples =
    List.sort compare
      (List.concat_map (fun (c, w) -> List.map (fun l -> (c, w, l)) lanes) pairs)
  in
  let lane_traces = Stats.lane_store_traces s in
  Alcotest.(check int) "lane traces: one per lane" (List.length triples)
    (List.length lane_traces);
  List.iter2
    (fun (c, w, l) ((c', w', l'), trace) ->
      if (c, w, l) <> (c', w', l') || trace <> [ (I.Shared, c, l) ] then
        Alcotest.failf "lane trace (%d, %d, %d) came back as (%d, %d, %d)" c w l c'
          w' l')
    triples lane_traces;
  let refused name f =
    match f () with
    | () -> Alcotest.failf "%s: out-of-range id accepted" name
    | exception Invalid_argument _ -> ()
  in
  refused "cta" (fun () ->
      Stats.record_store s ~cta:(Stats.max_cta + 1) ~warp:0 I.Global 0 0);
  refused "warp" (fun () ->
      Stats.record_warp_done s ~cta:0 ~warp:(Stats.max_warp + 1) ~instructions:1);
  refused "lane" (fun () ->
      Stats.record_lane_store s ~cta:0 ~warp:0 ~lane:(Stats.max_lane + 1) I.Global 0 0);
  refused "negative" (fun () -> Stats.record_store s ~cta:(-1) ~warp:0 I.Global 0 0)

(* Every field holds its own value: the scalars 1 .. n in some order
   ([timed_out] is the 1) and the stall counters 100 and up. A field
   added to [Stats.counters] must be added here (the record literal is
   exhaustive) with the next value, and then to [Stats.table], or the
   table's readings miss it. *)
let distinct : Stats.counters =
  {
    cycles = 24;
    instructions = 2;
    resident_warp_cycles = 3;
    warp_capacity_cycles = 4;
    acquire_execs = 5;
    acquire_first_try = 6;
    acquire_stall_cycles = 7;
    release_execs = 8;
    shared_oob = 9;
    spill_stores = 10;
    fill_loads = 11;
    rf_reads = 12;
    rf_writes = 13;
    shared_reads = 14;
    shared_writes = 15;
    mem_requests = 16;
    mem_latency_cycles = 17;
    active_lane_cycles = 18;
    predicated_lane_cycles = 19;
    divergent_branches = 20;
    lane_expansions = 21;
    issue_candidates = 22;
    stall_cycles = Array.init (List.length Stats.all_reasons) (fun i -> 100 + i);
    ctas_retired = 23;
    timed_out = true;
  }

let test_table_covers_counters () =
  (* The record's fields, the stall array counting as one. *)
  let scalars = Obj.size (Obj.repr distinct) - 1 in
  let expected =
    List.init scalars (fun i -> i + 1) @ Array.to_list distinct.stall_cycles
  in
  let read = List.map (fun (e : Stats.entry) -> e.get distinct) Stats.table in
  Alcotest.(check (list int)) "one table entry per counter" expected
    (List.sort compare read);
  let names = List.map (fun (e : Stats.entry) -> e.name) Stats.table in
  Alcotest.(check int) "names distinct" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check (list string)) "work counters"
    [ "issue_candidates"; "lane_expansions" ]
    (List.filter_map
       (fun (e : Stats.entry) -> if e.work then Some e.name else None)
       Stats.table);
  (* A work counter never makes two runs differ; a result counter does. *)
  Alcotest.(check bool) "work counters skipped" true
    (Stats.first_difference distinct { distinct with issue_candidates = 0 } = None);
  match Stats.first_difference distinct { distinct with rf_reads = 0 } with
  | Some ("rf_reads", 12, 0) -> ()
  | _ -> Alcotest.fail "rf_reads difference not reported by name"

let test_pp_smoke () =
  let s = Stats.create () in
  s.Stats.cycles <- 10;
  Stats.bump_stall s Stats.Stall_barrier;
  let words =
    Format.asprintf "%a" Stats.pp s
    |> String.map (fun c -> if c = '\n' then ' ' else c)
    |> String.split_on_char ' '
  in
  List.iter
    (fun (e : Stats.entry) ->
      let shown = Printf.sprintf "%s=%d" e.name (e.get (Stats.counters s)) in
      Alcotest.(check bool) ("prints " ^ shown) true (List.mem shown words))
    Stats.table;
  List.iter
    (fun ratio ->
      Alcotest.(check bool) ("prints " ^ ratio) true
        (List.exists (String.starts_with ~prefix:ratio) words))
    [ "ipc="; "achieved_occupancy="; "active_lane_occupancy=";
      "mean_mem_latency=" ]

let suite =
  [ Alcotest.test_case "derived metrics" `Quick test_derived_metrics;
    Alcotest.test_case "acquire ratio" `Quick test_acquire_ratio;
    Alcotest.test_case "stall counters" `Quick test_stall_counters;
    Alcotest.test_case "store traces" `Quick test_store_traces;
    Alcotest.test_case "pc trace" `Quick test_pc_trace;
    Alcotest.test_case "per-warp counts" `Quick test_warp_instruction_counts;
    Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
    Alcotest.test_case "table names every counter" `Quick
      test_table_covers_counters;
    Alcotest.test_case "key packing at the largest ids" `Quick test_key_packing ]
