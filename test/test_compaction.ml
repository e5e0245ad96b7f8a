open Regmutex
module I = Gpu_isa.Instr
module Program = Gpu_isa.Program
module Liveness = Gpu_analysis.Liveness
module Facts = Gpu_analysis.Facts

(* [Compaction.mov_compact] on a program rather than its facts. *)
let mov_compact ~bs p =
  let facts, moves = Compaction.mov_compact ~bs (Facts.of_program p) in
  (Facts.program facts, moves)

let test_permute_identity () =
  let perm = Array.init Util.straight.Program.n_regs (fun r -> r) in
  Alcotest.check Util.program "identity permutation" Util.straight
    (Compaction.permute Util.straight perm)

let test_permute_swap () =
  let p =
    Program.create ~name:"t"
      [| I.Mov (0, I.Imm 1); I.Bin (I.Add, 1, I.Reg 0, I.Imm 2);
         I.Store (I.Global, I.Imm 64, I.Reg 1, 0); I.Exit |]
  in
  let swapped = Compaction.permute p [| 1; 0 |] in
  Alcotest.check Util.instr "r0 became r1" (I.Mov (1, I.Imm 1)) (Program.get swapped 0);
  Alcotest.check Util.instr "r1 became r0"
    (I.Bin (I.Add, 0, I.Reg 1, I.Imm 2))
    (Program.get swapped 1)

let test_permute_invalid () =
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Compaction.permute: not a permutation") (fun () ->
      ignore (Compaction.permute Util.straight [| 0; 0; 1 |]));
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Compaction.permute: permutation length mismatch") (fun () ->
      ignore (Compaction.permute Util.straight [| 0 |]))

let prop_permute_preserves_semantics =
  Util.qtest ~count:40
    ~print:QCheck2.Print.(pair Util.print_program int)
    "random permutation preserves behaviour"
    QCheck2.Gen.(pair (Util.gen_structured ~n_regs:6) (int_bound 1000))
    (fun (prog, salt) ->
      let n = prog.Program.n_regs in
      (* A salt-derived rotation is always a permutation. *)
      let perm = Array.init n (fun r -> (r + salt) mod n) in
      let prog' = Compaction.permute prog perm in
      let s1 = Util.run_with (Util.static_policy prog) prog in
      let s2 = Util.run_with (Util.static_policy prog') prog' in
      Util.traces s1 = Util.traces s2)

let test_pressure_ranking_exiles_peak_regs () =
  (* Base registers r0/r1 live everywhere; r2/r3 live only at the peak.
     With bs = 2 the ranking must place r2/r3 at indices >= 2. *)
  let p =
    Program.create ~name:"t"
      [| I.Mov (0, I.Imm 1);
         I.Mov (1, I.Imm 2);
         I.Bin (I.Add, 2, I.Reg 0, I.Reg 1);
         I.Bin (I.Add, 3, I.Reg 2, I.Reg 1);
         I.Bin (I.Add, 0, I.Reg 2, I.Reg 3);
         I.Store (I.Global, I.Imm 64, I.Reg 0, 0);
         I.Bin (I.Add, 1, I.Reg 0, I.Reg 1);
         I.Store (I.Global, I.Imm 65, I.Reg 1, 0);
         I.Exit |]
  in
  let liveness = Liveness.analyze p in
  let perm = Compaction.pressure_ranking ~bs:2 p liveness in
  Alcotest.(check bool) "r0 stays low" true (perm.(0) < 2);
  Alcotest.(check bool) "r1 stays low" true (perm.(1) < 2);
  Alcotest.(check bool) "r2 exiled" true (perm.(2) >= 2);
  Alcotest.(check bool) "r3 exiled" true (perm.(3) >= 2)

let test_pressure_ranking_prefers_covered_ranges () =
  (* Two candidates for exile: r3 lives only inside the high-pressure
     window; r4 lives at five extra low-pressure instructions. With one
     slot above bs, r3 must be exiled, not r4. *)
  let p =
    Gpu_isa.Builder.(
      assemble ~name:"t"
        [ mov 0 (imm 1);
          mov 1 (imm 2);
          mov 4 (imm 3);            (* r4: long low-pressure range *)
          add 2 (r 0) (r 1);
          add 3 (r 2) (r 4);        (* peak: r0..r4 live *)
          add 0 (r 3) (r 2);
          store Gpu_isa.Instr.Global (imm 64) (r 0);
          add 1 (r 4) (imm 1);      (* r4 still live here, low pressure *)
          store Gpu_isa.Instr.Global (imm 65) (r 1);
          exit_ ])
  in
  let liveness = Liveness.analyze p in
  let perm = Compaction.pressure_ranking ~bs:4 p liveness in
  Alcotest.(check bool) "peak-only register exiled" true (perm.(3) = 4);
  Alcotest.(check bool) "long-lived temp stays low" true (perm.(4) < 4)

let test_mov_compact_simple () =
  (* r3 (high for bs=3) stays live after the pressure drops; compaction
     should move it into a free low slot. *)
  let p =
    Gpu_isa.Builder.(
      assemble ~name:"t"
        [ mov 0 (imm 1);
          mov 1 (imm 2);
          add 2 (r 0) (r 1);
          add 3 (r 2) (r 1);         (* peak: r0..r3 live *)
          add 0 (r 2) (r 3);         (* r2 dies; r3 lives on *)
          store Gpu_isa.Instr.Global (imm 64) (r 0);
          add 1 (r 3) (imm 7);       (* late use of r3 at low pressure *)
          store Gpu_isa.Instr.Global (imm 65) (r 1);
          exit_ ])
  in
  let compacted, moves = mov_compact ~bs:3 p in
  Alcotest.(check bool) "at least one move" true (moves >= 1);
  (* Semantics preserved. *)
  let s1 = Util.run_with ~grid:1 ~threads:32 (Util.static_policy p) p in
  let s2 = Util.run_with ~grid:1 ~threads:32 (Util.static_policy compacted) compacted in
  Util.check_same_traces "mov compaction" (Util.traces s1) (Util.traces s2)

let test_mov_compact_skips_loop_headers () =
  (* Regression: a live high register whose low-pressure range starts at a
     loop header must NOT be moved — the back edge would re-execute the
     inserted Mov and clobber the renamed loop counter (found by the
     random-program equivalence property). *)
  let p =
    Gpu_isa.Builder.(
      assemble ~name:"t"
        [ mov 0 (imm 0);
          mov 1 (imm 0);
          mov 2 (imm 0);
          add 3 (r 0) (r 1);        (* pressure peak with r3 *)
          add 0 (r 3) (r 2);
          mov 3 (imm 2);            (* high reg re-used as loop counter *)
          label "loop";             (* header: r3 live, pressure low *)
          add 1 (r 1) (imm 5);
          sub 3 (r 3) (imm 1);
          bnz (r 3) "loop";
          store Gpu_isa.Instr.Global (imm 64) (r 1);
          exit_ ])
  in
  let compacted, _moves = mov_compact ~bs:3 p in
  let s1 = Util.run_with ~grid:1 ~threads:32 (Util.static_policy p) p in
  let s2 = Util.run_with ~grid:1 ~threads:32 (Util.static_policy compacted) compacted in
  Alcotest.(check bool) "no timeout" false s2.Gpu_sim.Stats.timed_out;
  Util.check_same_traces "loop-header safety" (Util.traces s1) (Util.traces s2)

let test_mov_compact_no_opportunity () =
  let _, moves = mov_compact ~bs:3 Util.straight in
  Alcotest.(check int) "nothing to move" 0 moves

let prop_mov_compact_preserves_semantics =
  Util.qtest ~count:30 ~print:Util.print_program "mov compaction preserves behaviour"
    (Util.gen_structured ~n_regs:8)
    (fun prog ->
      let liveness = Liveness.analyze prog in
      let bs = max 1 (Liveness.max_pressure liveness - 2) in
      let prog', _ = mov_compact ~bs prog in
      let s1 = Util.run_with (Util.static_policy prog) prog in
      let s2 = Util.run_with (Util.static_policy prog') prog' in
      Util.traces s1 = Util.traces s2)

let test_release_with_zero_live_ext () =
  (* Edge case: every extended register dies inside the region, so the
     release point has nothing live above |Bs| — compaction must insert no
     MOV, the injector must still close the region with a Release, and the
     poison the simulator writes on release must be invisible. *)
  let p =
    Gpu_isa.Builder.(
      assemble ~name:"t"
        [ mov 0 (imm 1);
          mov 1 (imm 2);
          mov 2 (imm 3);
          add 3 (r 0) (r 1);         (* ext for bs=3 *)
          add 4 (r 3) (r 2);         (* peak: r0..r4 live *)
          add 0 (r 3) (r 4);         (* both ext registers die here *)
          store Gpu_isa.Instr.Global (imm 64) (r 0);
          store Gpu_isa.Instr.Global (imm 65) (r 1);
          store Gpu_isa.Instr.Global (imm 66) (r 2);
          exit_ ])
  in
  let plan = Transform.apply ~bs:3 ~es:2 p in
  Alcotest.(check int) "no MOV needed" 0 plan.Transform.n_movs;
  Alcotest.(check bool) "region closed" true (plan.Transform.n_releases >= 1);
  let s1 = Util.run_with ~grid:1 ~threads:64 (Util.static_policy p) p in
  let s2 =
    Util.run_with ~grid:1 ~threads:64
      (Gpu_sim.Policy.Srp { bs = 3; es = 2; verify = true })
      plan.Transform.transformed
  in
  Util.check_same_traces "zero-live-ext release" (Util.traces s1) (Util.traces s2)

let test_acquire_region_in_loop_body () =
  (* Edge case: the extended region sits inside a counted loop whose
     counter and accumulators occupy every base register, so compaction
     cannot dissolve the region — each iteration must re-acquire and the
     result must match the untransformed kernel. *)
  let trips = 3 in
  let p =
    Gpu_isa.Builder.(
      assemble ~name:"t"
        ([ mov 1 (imm 0); mov 2 (imm 7) ]
        @ Workloads.Shape.counted_loop ~ctr:0 ~trips:(imm trips) ~name:"l"
            [ add 3 (r 1) (r 2);     (* ext for bs=3 *)
              add 4 (r 3) (r 2);
              add 1 (r 3) (r 4) ]    (* both die before the latch *)
        @ [ store Gpu_isa.Instr.Global (imm 64) (r 1);
            store Gpu_isa.Instr.Global (imm 65) (r 2);
            exit_ ]))
  in
  let plan = Transform.apply ~bs:3 ~es:2 p in
  Alcotest.(check bool) "region survives compaction" true
    (plan.Transform.n_acquires >= 1);
  let s1 = Util.run_with ~grid:1 ~threads:64 (Util.static_policy p) p in
  let s2 =
    Util.run_with ~grid:1 ~threads:64
      (Gpu_sim.Policy.Srp { bs = 3; es = 2; verify = true })
      plan.Transform.transformed
  in
  (* Two warps, [trips] iterations each: the acquire must execute once per
     iteration, not once per warp. *)
  Alcotest.(check bool) "re-acquired on every iteration" true
    (s2.Gpu_sim.Stats.acquire_execs >= 2 * trips);
  Util.check_same_traces "loop-nested region" (Util.traces s1) (Util.traces s2)

(* The exile greedy as first written: every round rescans the program to
   recount each candidate's cost, and compares (cost, duration, -r) tuple
   keys. [Compaction.pressure_ranking] keeps the costs incrementally; this
   is its reference model. *)
let reference_ranking ~bs prog (liveness : Liveness.t) =
  let module Regset = Gpu_isa.Regset in
  let n_regs = prog.Program.n_regs in
  let n = Program.length prog in
  let duration = Array.make n_regs 0 in
  let live =
    Array.init n (fun i ->
        Regset.union
          (I.regs (Program.get prog i))
          (Regset.union liveness.Liveness.live_in.(i) liveness.Liveness.live_out.(i)))
  in
  Array.iter (fun set -> Regset.iter (fun r -> duration.(r) <- duration.(r) + 1) set) live;
  let low i = Liveness.pressure_at liveness i <= bs in
  if n_regs <= bs then Array.init n_regs (fun r -> r)
  else begin
    let covered = Array.init n (fun i -> not (low i)) in
    let is_high = Array.make n_regs false in
    let extra_cost r =
      let cost = ref 0 in
      for i = 0 to n - 1 do
        if (not covered.(i)) && Regset.mem r live.(i) then incr cost
      done;
      !cost
    in
    for _ = 1 to n_regs - bs do
      let best = ref (-1) and best_key = ref (max_int, max_int, 0) in
      for r = 0 to n_regs - 1 do
        if not is_high.(r) then begin
          let key = (extra_cost r, duration.(r), -r) in
          if key < !best_key then begin
            best := r;
            best_key := key
          end
        end
      done;
      is_high.(!best) <- true;
      for i = 0 to n - 1 do
        if Regset.mem !best live.(i) then covered.(i) <- true
      done
    done;
    let ranked select =
      List.filter (fun r -> is_high.(r) = select) (List.init n_regs Fun.id)
      |> List.stable_sort (fun a b -> compare duration.(b) duration.(a))
    in
    let perm = Array.make n_regs 0 in
    List.iteri (fun rank old -> perm.(old) <- rank) (ranked false @ ranked true);
    perm
  end

(* Every base-set size (0 through n_regs, both sides of the shortcut) of
   a program, with and without divergence widening. *)
let ranking_mismatch prog =
  List.find_map
    (fun widen ->
      let liveness = Liveness.analyze ~widen prog in
      let rank = Compaction.pressure_ranking prog liveness in
      List.find_map
        (fun bs ->
          if rank ~bs = reference_ranking ~bs prog liveness then None
          else Some (bs, widen))
        (List.init (prog.Program.n_regs + 1) Fun.id))
    [ true; false ]

let test_ranking_matches_reference_on_fuzz_kernels () =
  for seed = 0 to 299 do
    match ranking_mismatch (Fuzz.Gen.generate ~seed).Fuzz.Gen.program with
    | None -> ()
    | Some (bs, widen) ->
        Alcotest.failf "fuzz seed %d, bs=%d, widen=%b: ranking differs" seed bs widen
  done

let prop_ranking_matches_reference =
  Util.qtest ~count:100 ~print:Util.print_program
    "ranking matches the rescanning greedy"
    (Util.gen_structured ~n_regs:10)
    (fun prog -> ranking_mismatch prog = None)

(* The mov-compaction attempt as first written: it rescans the program
   for every touched-slot test, allocates successor lists inside the range
   test's loop, and tests ranges before looking for a free slot.
   [Compaction.mov_compact] computes the same thing with one successor
   table and one backward suffix union per attempt; this is its
   reference model. *)
let reference_try_one ~bs prog =
  let module Regset = Gpu_isa.Regset in
  let module Cfg = Gpu_analysis.Cfg in
  let liveness = Liveness.analyze ~widen:true prog in
  let n = Program.length prog in
  let live_in = liveness.Liveness.live_in and live_out = liveness.Liveness.live_out in
  let preds = Array.make n [] in
  for i = 0 to n - 1 do
    List.iter (fun s -> preds.(s) <- i :: preds.(s)) (Cfg.instr_succs prog i)
  done;
  let touched_from f r =
    let rec go i =
      i < n
      && (Regset.mem r (I.regs (Program.get prog i))
          || Regset.mem r live_in.(i)
          || Regset.mem r live_out.(i)
          || go (i + 1))
    in
    go f
  in
  let range_confined f h =
    let ok = ref true in
    List.iter (fun p -> if p >= f then ok := false) preds.(f);
    for i = 0 to n - 1 do
      if i < f && (Regset.mem h live_in.(i) || Regset.mem h live_out.(i)) then
        List.iter
          (fun s -> if s > f && Regset.mem h live_in.(s) then ok := false)
          (Cfg.instr_succs prog i);
      if i > f && Regset.mem h live_in.(i) then
        List.iter (fun p -> if p < f then ok := false) preds.(i);
      if i >= f && Regset.mem h live_out.(i) then
        List.iter
          (fun s -> if s < f && Regset.mem h live_in.(s) then ok := false)
          (Cfg.instr_succs prog i)
    done;
    !ok
  in
  let find_slot f =
    let rec go x = if x >= bs then None else if touched_from f x then go (x + 1) else Some x in
    go 0
  in
  let result = ref None in
  let f = ref 0 in
  while !result = None && !f < n do
    let i = !f in
    if Liveness.pressure_at liveness i <= bs then begin
      let high = Regset.above bs (Regset.inter live_in.(i) live_out.(i)) in
      let candidate =
        Regset.fold
          (fun h acc ->
            match acc with
            | Some _ -> acc
            | None ->
                if range_confined i h then
                  match find_slot i with Some x -> Some (h, x) | None -> None
                else None)
          high None
      in
      match candidate with
      | Some (h, x) ->
          let rename r = if r = h then x else r in
          let renamed =
            Program.map_instrs
              (fun j instr -> if j >= i then I.map_regs rename instr else instr)
              prog
          in
          result := Some (Program.insert_before renamed [ (i, [ I.Mov (x, I.Reg h) ]) ])
      | None -> incr f
    end
    else incr f
  done;
  !result

let reference_mov_compact ~bs prog =
  let rec go prog moves budget =
    if budget = 0 then (prog, moves)
    else
      match reference_try_one ~bs prog with
      | Some prog' -> go prog' (moves + 1) (budget - 1)
      | None -> (prog, moves)
  in
  go prog 0 64

(* Every base-set size of a fuzz kernel, on the program as generated and
   as [Transform.apply] hands it to mov-compaction (permuted by the
   pressure ranking): the moves and the program must match the
   reference's. *)
let test_mov_compact_matches_reference_on_fuzz_kernels () =
  for seed = 0 to 299 do
    let prog = (Fuzz.Gen.generate ~seed).Fuzz.Gen.program in
    let rank = Compaction.pressure_ranking prog (Liveness.analyze prog) in
    for bs = 0 to prog.Program.n_regs do
      List.iter
        (fun (label, p) ->
          let got, moves = mov_compact ~bs p in
          let want, want_moves = reference_mov_compact ~bs p in
          if moves <> want_moves || not (Program.equal got want) then
            Alcotest.failf "fuzz seed %d, bs=%d, %s program: %d moves, reference %d"
              seed bs label moves want_moves)
        [ ("generated", prog); ("permuted", Compaction.permute prog (rank ~bs)) ]
    done
  done

let suite =
  [ Alcotest.test_case "permute identity" `Quick test_permute_identity;
    Alcotest.test_case "permute swap" `Quick test_permute_swap;
    Alcotest.test_case "permute validation" `Quick test_permute_invalid;
    prop_permute_preserves_semantics;
    Alcotest.test_case "ranking exiles peak-only registers" `Quick
      test_pressure_ranking_exiles_peak_regs;
    Alcotest.test_case "ranking minimises new acquire coverage" `Quick
      test_pressure_ranking_prefers_covered_ranges;
    Alcotest.test_case "mov compaction moves a live high register" `Quick
      test_mov_compact_simple;
    Alcotest.test_case "mov compaction: no opportunity" `Quick
      test_mov_compact_no_opportunity;
    Alcotest.test_case "mov compaction: loop-header regression" `Quick
      test_mov_compact_skips_loop_headers;
    prop_mov_compact_preserves_semantics;
    Alcotest.test_case "release point with zero live extended registers" `Quick
      test_release_with_zero_live_ext;
    Alcotest.test_case "acquire region nested in a loop body" `Quick
      test_acquire_region_in_loop_body;
    Alcotest.test_case "ranking matches the rescanning greedy (fuzz kernels)"
      `Quick test_ranking_matches_reference_on_fuzz_kernels;
    prop_ranking_matches_reference;
    Alcotest.test_case "mov compaction matches the rescanning attempt (fuzz kernels)"
      `Quick test_mov_compact_matches_reference_on_fuzz_kernels ]
