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

let test_pp_smoke () =
  let s = Stats.create () in
  s.Stats.cycles <- 10;
  Stats.bump_stall s Stats.Stall_barrier;
  let out = Format.asprintf "%a" Stats.pp s in
  Alcotest.(check bool) "mentions cycles" true (String.length out > 0)

let suite =
  [ Alcotest.test_case "derived metrics" `Quick test_derived_metrics;
    Alcotest.test_case "acquire ratio" `Quick test_acquire_ratio;
    Alcotest.test_case "stall counters" `Quick test_stall_counters;
    Alcotest.test_case "store traces" `Quick test_store_traces;
    Alcotest.test_case "pc trace" `Quick test_pc_trace;
    Alcotest.test_case "per-warp counts" `Quick test_warp_instruction_counts;
    Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
    Alcotest.test_case "key packing at the largest ids" `Quick test_key_packing ]
