(* Failure injection: break correctly instrumented programs and verify the
   safety nets catch every mutation — the static checker at compile time
   and dynamic verification in the simulator. *)

open Regmutex
module I = Gpu_isa.Instr
module Program = Gpu_isa.Program

(* A transformed kernel with at least one acquire/release pair on every
   warp's path (SAD's bulge is unconditional). *)
let transformed, bs, es =
  let prog = (Workloads.Registry.find "SAD").Workloads.Spec.kernel.Gpu_sim.Kernel.program in
  let plan = Transform.apply ~bs:20 ~es:12 prog in
  (plan.Transform.transformed, 20, 12)

let find_first pred p =
  let rec go i =
    if i >= Program.length p then None
    else if pred (Program.get p i) then Some i
    else go (i + 1)
  in
  go 0

let replace p idx instr =
  Program.map_instrs (fun i old -> if i = idx then instr else old) p

let checker_flags p =
  Checker.check ~bs ~es p <> []

let test_drop_acquire () =
  match find_first (fun i -> i = I.Acquire) transformed with
  | None -> Alcotest.fail "no acquire to drop"
  | Some idx ->
      (* Neutralise the acquire (a Bar would change semantics; use a
         harmless base-register move). *)
      let broken = replace transformed idx (I.Mov (0, I.Reg 0)) in
      Alcotest.(check bool) "checker flags dropped acquire" true (checker_flags broken)

let test_drop_release () =
  match find_first (fun i -> i = I.Release) transformed with
  | None -> Alcotest.fail "no release to drop"
  | Some idx ->
      let broken = replace transformed idx (I.Mov (0, I.Reg 0)) in
      (* Dropping a release is not a *safety* fault by itself (the set is
         merely held longer) unless a path now releases while high regs
         live; it must at minimum still pass or fail consistently — but
         swapping a release for an acquire at the same spot is flagged
         when a later release frees live extended registers... The strong
         guarantee we check: dropping the release never makes the checker
         accept an unsound program — simulate it and require identical
         stores (holding longer is legal). *)
      (match Checker.check ~bs ~es broken with
      | [] ->
          let base =
            Util.run_with ~grid:2 ~threads:64 ~params:[| 4; 4 |]
              (Gpu_sim.Policy.Srp { bs; es; verify = true })
              transformed
          in
          let held =
            Util.run_with ~grid:2 ~threads:64 ~params:[| 4; 4 |]
              (Gpu_sim.Policy.Srp { bs; es; verify = true })
              broken
          in
          Util.check_same_traces "longer hold is still correct"
            (Util.traces base) (Util.traces held)
      | _ :: _ -> ())

let test_swap_acquire_release () =
  match find_first (fun i -> i = I.Acquire) transformed with
  | None -> Alcotest.fail "no acquire"
  | Some idx ->
      let broken = replace transformed idx I.Release in
      Alcotest.(check bool) "checker flags swapped primitive" true (checker_flags broken)

let test_early_release () =
  (* Insert a release right after the first acquire: extended registers
     are then written with the set free. *)
  match find_first (fun i -> i = I.Acquire) transformed with
  | None -> Alcotest.fail "no acquire"
  | Some idx ->
      let broken = Program.insert_before transformed [ (idx + 1, [ I.Release ]) ] in
      Alcotest.(check bool) "checker flags early release" true (checker_flags broken)

let test_dynamic_verification_catches () =
  (* Strip every primitive: the checker flags it, and — independently —
     the simulator's dynamic verification must refuse to run it. *)
  let stripped =
    Program.map_instrs
      (fun _ i -> if i = I.Acquire || i = I.Release then I.Mov (0, I.Reg 0) else i)
      transformed
  in
  Alcotest.(check bool) "checker flags stripped program" true (checker_flags stripped);
  Alcotest.(check bool) "simulator verification trips" true
    (try
       ignore
         (Util.run_with ~grid:1 ~threads:64 ~params:[| 4; 4 |]
            (Gpu_sim.Policy.Srp { bs; es; verify = true })
            stripped);
       false
     with Gpu_sim.Sm.Verification_failure _ -> true)

let test_extra_primitives_harmless () =
  (* Idempotency end-to-end: doubling every primitive changes nothing. *)
  let doubled =
    let inserts = ref [] in
    for i = 0 to Program.length transformed - 1 do
      let instr = Program.get transformed i in
      if instr = I.Acquire || instr = I.Release then
        inserts := (i, [ instr ]) :: !inserts
    done;
    Program.insert_before transformed (List.rev !inserts)
  in
  Alcotest.(check (list string)) "checker accepts doubled primitives" []
    (List.map (fun v -> v.Checker.message) (Checker.check ~bs ~es doubled));
  let a =
    Util.run_with ~grid:2 ~threads:64 ~params:[| 4; 4 |]
      (Gpu_sim.Policy.Srp { bs; es; verify = true })
      transformed
  in
  let b =
    Util.run_with ~grid:2 ~threads:64 ~params:[| 4; 4 |]
      (Gpu_sim.Policy.Srp { bs; es; verify = true })
      doubled
  in
  Util.check_same_traces "doubled primitives" (Util.traces a) (Util.traces b)

let prop_mutations_caught =
  (* Randomly neutralise one primitive in random transformed kernels: the
     checker or the runtime must notice, or behaviour must be unchanged. *)
  Util.qtest ~count:30
    ~print:QCheck2.Print.(pair Util.print_program int)
    "random primitive mutations never corrupt silently"
    QCheck2.Gen.(pair (Util.gen_structured ~n_regs:8) (int_bound 1000))
    (fun (prog, salt) ->
      let liveness = Gpu_analysis.Liveness.analyze prog in
      let peak = Gpu_analysis.Liveness.max_pressure liveness in
      let bs = max 1 (min (prog.Program.n_regs - 1) (peak - 1)) in
      let es = prog.Program.n_regs - bs in
      let plan = Transform.apply ~bs ~es prog in
      let t = plan.Transform.transformed in
      let prims =
        List.filter
          (fun i -> Program.get t i = I.Acquire || Program.get t i = I.Release)
          (List.init (Program.length t) (fun i -> i))
      in
      match prims with
      | [] -> true
      | _ :: _ -> (
          let idx = List.nth prims (salt mod List.length prims) in
          let broken = replace t idx (I.Mov (0, I.Reg 0)) in
          match Checker.check ~bs ~es broken with
          | _ :: _ -> true (* statically caught *)
          | [] -> (
              (* Statically clean: running it must be behaviourally
                 identical to the baseline (e.g. a redundant primitive). *)
              match
                Util.run_with (Gpu_sim.Policy.Srp { bs; es; verify = true }) broken
              with
              | stats ->
                  let base = Util.run_with (Util.static_policy prog) prog in
                  Util.traces base = Util.traces stats
              | exception Gpu_sim.Sm.Verification_failure _ -> true)))

let suite =
  [ Alcotest.test_case "dropped acquire caught" `Quick test_drop_acquire;
    Alcotest.test_case "dropped release safe or caught" `Quick test_drop_release;
    Alcotest.test_case "swapped primitive caught" `Quick test_swap_acquire_release;
    Alcotest.test_case "early release caught" `Quick test_early_release;
    Alcotest.test_case "dynamic verification backstop" `Quick
      test_dynamic_verification_catches;
    Alcotest.test_case "doubled primitives harmless" `Quick test_extra_primitives_harmless;
    prop_mutations_caught ]
