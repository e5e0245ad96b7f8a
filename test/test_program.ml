open Gpu_isa
module I = Instr

let make body = Program.create ~name:"t" (Array.of_list body)

let test_create_valid () =
  let p = make [ I.Mov (0, I.Imm 1); I.Exit ] in
  Alcotest.(check int) "length" 2 (Program.length p);
  Alcotest.(check int) "n_regs" 1 p.Program.n_regs;
  Alcotest.check Util.instr "get" (I.Mov (0, I.Imm 1)) (Program.get p 0)

let expect_invalid name body =
  match make body with
  | _ -> Alcotest.failf "%s: expected Program.Invalid" name
  | exception Program.Invalid _ -> ()

let test_validation () =
  expect_invalid "empty" [];
  expect_invalid "no exit" [ I.Mov (0, I.Imm 1); I.Jump 0 ];
  expect_invalid "falls through end" [ I.Exit; I.Mov (0, I.Imm 1) ];
  expect_invalid "bad target" [ I.Jump 5; I.Exit ];
  expect_invalid "negative target" [ I.Jump (-1); I.Exit ]

let test_n_regs () =
  let p = make [ I.Bin (I.Add, 7, I.Reg 3, I.Imm 1); I.Exit ] in
  Alcotest.(check int) "n_regs from max index" 8 p.Program.n_regs

let test_insert_before_simple () =
  let p = make [ I.Mov (0, I.Imm 1); I.Mov (1, I.Imm 2); I.Exit ] in
  let p' = Program.insert_before p [ (1, [ I.Acquire ]) ] in
  Alcotest.(check int) "one longer" 4 (Program.length p');
  Alcotest.check Util.instr "inserted at 1" I.Acquire (Program.get p' 1);
  Alcotest.check Util.instr "shifted" (I.Mov (1, I.Imm 2)) (Program.get p' 2)

let test_insert_retargets_branches () =
  (* Loop: 0: mov; 1: sub; 2: jump_if -> 1; 3: exit. Inserting before 1
     must retarget the branch onto the inserted instruction. *)
  let p =
    make
      [ I.Mov (0, I.Imm 3);
        I.Bin (I.Sub, 0, I.Reg 0, I.Imm 1);
        I.Jump_if (I.Reg 0, 1);
        I.Exit ]
  in
  let p' = Program.insert_before p [ (1, [ I.Acquire ]) ] in
  Alcotest.check Util.instr "branch lands on insert" (I.Jump_if (I.Reg 0, 1))
    (Program.get p' 3);
  Alcotest.check Util.instr "insert at 1" I.Acquire (Program.get p' 1)

let test_insert_multiple () =
  let p = make [ I.Mov (0, I.Imm 1); I.Jump 0; I.Exit ] in
  let p' =
    Program.insert_before p [ (0, [ I.Acquire ]); (1, [ I.Release ]); (2, [ I.Bar ]) ]
  in
  Alcotest.(check int) "length" 6 (Program.length p');
  (* Jump to 0 must land on the acquire at new index 0. *)
  Alcotest.check Util.instr "retarget to 0" (I.Jump 0) (Program.get p' 3);
  Alcotest.check Util.instr "order" I.Release (Program.get p' 2);
  Alcotest.check Util.instr "before exit" I.Bar (Program.get p' 4)

let test_insert_append () =
  let p = make [ I.Jump 1; I.Exit ] in
  let p' = Program.insert_before p [ (2, [ I.Exit ]) ] in
  Alcotest.(check int) "appended" 3 (Program.length p');
  Alcotest.check Util.instr "tail" I.Exit (Program.get p' 2)

let test_insert_same_index_order () =
  let p = make [ I.Exit ] in
  let p' = Program.insert_before p [ (0, [ I.Acquire ]); (0, [ I.Release ]) ] in
  Alcotest.check Util.instr "first" I.Acquire (Program.get p' 0);
  Alcotest.check Util.instr "second" I.Release (Program.get p' 1)

let test_map_instrs () =
  let p = make [ I.Mov (0, I.Imm 1); I.Exit ] in
  let p' = Program.map_instrs (fun _ i -> I.map_regs (fun r -> r + 1) i) p in
  Alcotest.check Util.instr "renamed" (I.Mov (1, I.Imm 1)) (Program.get p' 0)

let test_count_equal () =
  let p = make [ I.Acquire; I.Release; I.Acquire; I.Exit ] in
  Alcotest.(check int) "count acquires" 2 (Program.count (fun i -> i = I.Acquire) p);
  Alcotest.(check bool) "equal self" true (Program.equal p p);
  let q = make [ I.Acquire; I.Release; I.Release; I.Exit ] in
  Alcotest.(check bool) "not equal" false (Program.equal p q)

(* Property: insertion never changes the simulated store trace (the
   inserted no-ops are Acquire/Release under a Static policy). *)
let prop_insert_preserves_semantics =
  Util.qtest ~count:40 ~print:Util.print_program "insert_before preserves behaviour"
    (Util.gen_structured ~n_regs:6)
    (fun prog ->
      let n = Program.length prog in
      let mid = n / 2 in
      let prog' = Program.insert_before prog [ (mid, [ I.Acquire; I.Release ]) ] in
      let s1 = Util.run_with (Util.static_policy prog) prog in
      let s2 = Util.run_with (Util.static_policy prog') prog' in
      Util.traces s1 = Util.traces s2)

let suite =
  [ Alcotest.test_case "create valid" `Quick test_create_valid;
    Alcotest.test_case "validation rules" `Quick test_validation;
    Alcotest.test_case "n_regs" `Quick test_n_regs;
    Alcotest.test_case "insert simple" `Quick test_insert_before_simple;
    Alcotest.test_case "insert retargets branches" `Quick test_insert_retargets_branches;
    Alcotest.test_case "insert multiple" `Quick test_insert_multiple;
    Alcotest.test_case "insert append" `Quick test_insert_append;
    Alcotest.test_case "insert stable order" `Quick test_insert_same_index_order;
    Alcotest.test_case "map_instrs" `Quick test_map_instrs;
    Alcotest.test_case "count / equal" `Quick test_count_equal;
    prop_insert_preserves_semantics ]
