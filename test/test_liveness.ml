open Gpu_analysis
module I = Gpu_isa.Instr
module Program = Gpu_isa.Program
module Regset = Gpu_isa.Regset

let set = Util.regset

let test_straight () =
  let t = Liveness.analyze Util.straight in
  (* mov r0; add r1,r0; mul r2,r0,r1; store r2; exit *)
  Alcotest.check set "entry live_in empty" Regset.empty t.Liveness.live_in.(0);
  Alcotest.check set "r0 live into add" (Regset.singleton 0) t.Liveness.live_in.(1);
  Alcotest.check set "r0,r1 into mul" (Regset.of_list [ 0; 1 ]) t.Liveness.live_in.(2);
  Alcotest.check set "r2 into store" (Regset.singleton 2) t.Liveness.live_in.(3);
  Alcotest.check set "dead after store" Regset.empty t.Liveness.live_out.(3)

let test_loop_carried () =
  let t = Liveness.analyze Util.loop in
  (* r1 (accumulator) is live around the loop back edge; the counter r0 is
     live from its init through the loop. *)
  let header_bz = 2 in
  Alcotest.(check bool) "acc live at header" true
    (Regset.mem 1 t.Liveness.live_in.(header_bz));
  Alcotest.(check bool) "counter live at header" true
    (Regset.mem 0 t.Liveness.live_in.(header_bz))

let test_dead_code () =
  let p =
    Program.create ~name:"dead"
      [| I.Mov (0, I.Imm 1); I.Mov (0, I.Imm 2);
         I.Store (I.Global, I.Imm 0, I.Reg 0, 0); I.Exit |]
  in
  let t = Liveness.analyze p in
  (* The first definition is dead: r0 not live into instruction 1. *)
  Alcotest.check set "dead def" Regset.empty t.Liveness.live_in.(1);
  Alcotest.check set "second def live" (Regset.singleton 0) t.Liveness.live_in.(2)

(* Figure 3, R3 case: defined before the branch, used in only one arm —
   widening makes it live throughout both arms. *)
let test_widening_r3 () =
  let p =
    Gpu_isa.Builder.(
      assemble ~name:"r3"
        [ mov 0 (imm 1);
          mov 3 (imm 9);        (* R3 defined before the branch *)
          bz (r 0) "s2";
          mov 1 (imm 2);        (* s1: does not use R3 *)
          mov 1 (imm 3);
          bra "join";
          label "s2";
          add 1 (r 3) (imm 1);  (* s2: uses R3 *)
          label "join";
          store Gpu_isa.Instr.Global (imm 64) (r 1);
          exit_ ])
  in
  let narrow = Liveness.analyze ~widen:false p in
  let wide = Liveness.analyze ~widen:true p in
  (* Without widening R3 is dead in s1 (instructions 3-5). *)
  Alcotest.(check bool) "narrow: dead in s1" false
    (Regset.mem 3 narrow.Liveness.live_in.(4));
  Alcotest.(check bool) "wide: live in s1" true
    (Regset.mem 3 wide.Liveness.live_in.(4));
  (* In both, dead after its use. *)
  Alcotest.(check bool) "dead at join" false (Regset.mem 3 wide.Liveness.live_in.(8))

(* Figure 3, R2 case: defined within one arm, used after the join —
   widening makes it live in the other arm too. *)
let test_widening_r2 () =
  let p =
    Gpu_isa.Builder.(
      assemble ~name:"r2"
        [ mov 0 (imm 1);
          mov 2 (imm 0);        (* R2 initialised before branch *)
          bz (r 0) "s2";
          mov 2 (imm 7);        (* s1 redefines R2 *)
          bra "join";
          label "s2";
          mov 1 (imm 3);        (* s2 does not touch R2 *)
          label "join";
          store Gpu_isa.Instr.Global (imm 64) (r 2);
          exit_ ])
  in
  let wide = Liveness.analyze ~widen:true p in
  (* R2 must be considered live in s2 (instruction 5). *)
  Alcotest.(check bool) "live in untouched arm" true
    (Regset.mem 2 wide.Liveness.live_in.(5))

let test_pressure () =
  let t = Liveness.analyze Util.straight in
  Alcotest.(check int) "max pressure" 2 (Liveness.max_pressure t);
  let profile = Liveness.profile t in
  Alcotest.(check int) "profile length" 5 (Array.length profile);
  Alcotest.(check int) "pressure at mul" 2 (Liveness.pressure_at t 2)

let test_live_at_barriers () =
  let p =
    Gpu_isa.Builder.(
      assemble ~name:"barred"
        [ mov 0 (imm 1); mov 1 (imm 2); bar;
          add 2 (r 0) (r 1); store Gpu_isa.Instr.Global (imm 64) (r 2); exit_ ])
  in
  let t = Liveness.analyze p in
  Alcotest.(check int) "two regs live at bar" 2 (Liveness.live_at_barriers p t);
  let t0 = Liveness.analyze Util.straight in
  Alcotest.(check int) "no barrier" 0 (Liveness.live_at_barriers Util.straight t0)

(* Property: the dataflow equations hold at fixpoint, and widening only
   enlarges live sets. *)
let prop_dataflow_equations =
  Util.qtest ~count:60 ~print:Util.print_program "dataflow equations hold"
    (Util.gen_structured ~n_regs:6)
    (fun prog ->
      let t = Liveness.analyze ~widen:false prog in
      let n = Program.length prog in
      let ok = ref true in
      for i = 0 to n - 1 do
        let instr = Program.get prog i in
        let out =
          List.fold_left
            (fun acc s -> Regset.union acc t.Liveness.live_in.(s))
            Regset.empty (Cfg.instr_succs prog i)
        in
        let inn = Regset.union (I.uses instr) (Regset.diff out (I.defs instr)) in
        if not (Regset.equal out t.Liveness.live_out.(i)
                && Regset.equal inn t.Liveness.live_in.(i))
        then ok := false
      done;
      !ok)

let prop_widening_monotone =
  Util.qtest ~count:60 ~print:Util.print_program "widening only grows live sets"
    (Util.gen_structured ~n_regs:6)
    (fun prog ->
      let narrow = Liveness.analyze ~widen:false prog in
      let wide = Liveness.analyze ~widen:true prog in
      let ok = ref true in
      for i = 0 to Program.length prog - 1 do
        if not (Regset.subset narrow.Liveness.live_in.(i) wide.Liveness.live_in.(i))
        then ok := false
      done;
      !ok)

let prop_uses_live =
  Util.qtest ~count:60 ~print:Util.print_program "uses are live on entry"
    (Util.gen_structured ~n_regs:6)
    (fun prog ->
      let t = Liveness.analyze prog in
      let ok = ref true in
      for i = 0 to Program.length prog - 1 do
        if not (Regset.subset (I.uses (Program.get prog i)) t.Liveness.live_in.(i))
        then ok := false
      done;
      !ok)

let suite =
  [ Alcotest.test_case "straight line" `Quick test_straight;
    Alcotest.test_case "loop-carried values" `Quick test_loop_carried;
    Alcotest.test_case "dead definition" `Quick test_dead_code;
    Alcotest.test_case "widening: use in one arm (R3)" `Quick test_widening_r3;
    Alcotest.test_case "widening: def in one arm (R2)" `Quick test_widening_r2;
    Alcotest.test_case "pressure profile" `Quick test_pressure;
    Alcotest.test_case "live at barriers" `Quick test_live_at_barriers;
    prop_dataflow_equations;
    prop_widening_monotone;
    prop_uses_live ]
