open Regmutex
module I = Gpu_isa.Instr
module Program = Gpu_isa.Program
module Liveness = Gpu_analysis.Liveness

let inject ~bs prog = Injection.inject ~bs prog (Liveness.analyze prog)

(* Straight line with a pressure bulge above bs=2: r0,r1 base; r2,r3 high. *)
let bulgy =
  Gpu_isa.Builder.(
    assemble ~name:"bulgy"
      [ mov 0 (imm 1);                 (* 0 *)
        add 1 (r 0) (imm 2);           (* 1: live {0,1} *)
        add 2 (r 0) (r 1);             (* 2: defines r2 *)
        add 3 (r 2) (r 1);             (* 3: defines r3; live {0,1,2,3} *)
        add 1 (r 2) (r 3);             (* 4: last use of r2,r3 *)
        store Gpu_isa.Instr.Global (imm 64) (r 1); (* 5 *)
        exit_ ])

let test_ext_predicate () =
  let liveness = Liveness.analyze bulgy in
  let ext = Injection.ext_predicate ~bs:2 bulgy liveness in
  Alcotest.(check (array bool)) "ext instructions"
    [| false; false; true; true; true; false; false |]
    ext

let test_ext_fraction () =
  Alcotest.(check (float 1e-9)) "fraction" 0.5
    (Injection.ext_fraction [| true; false; true; false |]);
  Alcotest.(check (float 1e-9)) "empty" 0. (Injection.ext_fraction [||])

let test_straight_line_injection () =
  let out = inject ~bs:2 bulgy in
  Alcotest.(check int) "one acquire" 1 out.Injection.n_acquires;
  Alcotest.(check int) "one release" 1 out.Injection.n_releases;
  let p = out.Injection.program in
  Alcotest.check Util.instr "acquire before first ext" I.Acquire (Program.get p 2);
  Alcotest.check Util.instr "release after last ext" I.Release (Program.get p 6)

let test_no_ext_unchanged () =
  let out = inject ~bs:4 bulgy in
  Alcotest.(check bool) "program unchanged" true
    (Program.equal out.Injection.program bulgy);
  Alcotest.(check int) "no acquires" 0 out.Injection.n_acquires;
  Alcotest.(check (float 1e-9)) "zero fraction" 0. out.Injection.ext_static_fraction

(* A conditional whose then-arm needs the extended set: both the taken and
   fallthrough paths must see balanced primitives (checked by Checker). *)
let conditional =
  Gpu_isa.Builder.(
    assemble ~name:"cond"
      [ mov 0 (imm 1);
        and_ 1 (r 0) (imm 1);
        bz (r 1) "skip";
        add 2 (r 0) (imm 1);
        add 3 (r 2) (imm 2);
        add 4 (r 3) (r 2);
        add 0 (r 4) (r 3);
        label "skip";
        store Gpu_isa.Instr.Global (imm 64) (r 0);
        exit_ ])

let test_conditional_injection () =
  let out = inject ~bs:3 conditional in
  Alcotest.(check bool) "has acquires" true (out.Injection.n_acquires >= 1);
  Alcotest.(check bool) "has releases" true (out.Injection.n_releases >= 1);
  Alcotest.(check (list string)) "checker accepts" []
    (List.map (fun v -> v.Checker.message) (Checker.check ~bs:3 ~es:2 out.Injection.program))

(* A loop whose body is entirely extended: acquire before the loop (or at
   its head) and release after — the warp may hold across iterations. *)
let hot_loop =
  Gpu_isa.Builder.(
    assemble ~name:"hotloop"
      ([ mov 0 (imm 4); mov 1 (imm 0); mov 2 (imm 7); mov 3 (imm 9) ]
      @ Workloads.Shape.counted_loop ~ctr:0 ~trips:(imm 4) ~name:"l"
          [ add 1 (r 1) (r 2); add 2 (r 2) (r 3); add 3 (r 3) (r 1) ]
      @ [ store Gpu_isa.Instr.Global (imm 64) (r 1); exit_ ]))

let test_loop_injection () =
  let out = inject ~bs:3 hot_loop in
  let p = out.Injection.program in
  Alcotest.(check (list string)) "checker accepts" []
    (List.map (fun v -> v.Checker.message) (Checker.check ~bs:3 ~es:2 p));
  (* Simulate: the result must match the uninstrumented program. *)
  let s_orig = Util.run_with ~grid:1 ~threads:32 (Util.static_policy hot_loop) hot_loop in
  let s_inj =
    Util.run_with ~grid:1 ~threads:32
      (Gpu_sim.Policy.Srp { bs = 3; es = 2; verify = true })
      p
  in
  Util.check_same_traces "loop injection" (Util.traces s_orig) (Util.traces s_inj)

let prop_injection_sound =
  Util.qtest ~count:50 ~print:Util.print_program
    "injection always passes the checker"
    (Util.gen_structured ~n_regs:8)
    (fun prog ->
      let liveness = Liveness.analyze prog in
      let bs = max 1 (Liveness.max_pressure liveness - 2) in
      let out = Injection.inject ~bs prog liveness in
      Checker.check ~bs ~es:(prog.Program.n_regs - bs) out.Injection.program = [])

let suite =
  [ Alcotest.test_case "ext predicate" `Quick test_ext_predicate;
    Alcotest.test_case "ext fraction" `Quick test_ext_fraction;
    Alcotest.test_case "straight-line placement" `Quick test_straight_line_injection;
    Alcotest.test_case "no extended state, unchanged" `Quick test_no_ext_unchanged;
    Alcotest.test_case "conditional placement" `Quick test_conditional_injection;
    Alcotest.test_case "loop placement + behaviour" `Quick test_loop_injection;
    prop_injection_sound ]
