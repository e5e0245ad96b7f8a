open Gpu_isa
module I = Instr

let parse = Parser.parse ~name:"t"

let test_basic () =
  let p =
    parse
      {|
        // a tiny kernel
        mov r0, %tid
        add r1, r0, 42       # trailing comment
        mad r2, r1, param[0], r2
        set.lt r3, r1, 100
        sel r4, r3, r1, r2
        exit
      |}
  in
  Alcotest.(check int) "six instructions" 6 (Program.length p);
  Alcotest.check Util.instr "mov special" (I.Mov (0, I.Special I.Tid)) (Program.get p 0);
  Alcotest.check Util.instr "mad with param"
    (I.Mad (2, I.Reg 1, I.Param 0, I.Reg 2))
    (Program.get p 2);
  Alcotest.check Util.instr "cmp" (I.Cmp (I.Lt, 3, I.Reg 1, I.Imm 100)) (Program.get p 3)

(* A comment starts at the first [#] or [//] of a line, whichever comes
   first; a lone [/] is not one. *)
let test_comments () =
  let p =
    parse
      "mov r0, 1 // x # y\n\
       mov r1, 2 # x // y\n\
       mov r2, 3#\n\
       mov r3, 4//\n\
       # mov r4, 5\n\
       // mov r4, 6\n\
       exit"
  in
  Alcotest.(check int) "five instructions" 5 (Program.length p);
  List.iteri
    (fun i v ->
      Alcotest.check Util.instr "comment stripped" (I.Mov (i, I.Imm v)) (Program.get p i))
    [ 1; 2; 3; 4 ];
  match parse "mov r0, 1 / 2\nexit" with
  | _ -> Alcotest.fail "a lone '/' was taken for a comment"
  | exception Parser.Parse_error _ -> ()

let test_memory_ops () =
  let p =
    parse
      {| ld.global r5, [r1+4]
         st.shared [r0+0], r5
         ld.shared r6, [%tid]
         st.global [r0-8], 7
         exit |}
  in
  Alcotest.check Util.instr "load ofs" (I.Load (I.Global, 5, I.Reg 1, 4)) (Program.get p 0);
  Alcotest.check Util.instr "store" (I.Store (I.Shared, I.Reg 0, I.Reg 5, 0)) (Program.get p 1);
  Alcotest.check Util.instr "no offset" (I.Load (I.Shared, 6, I.Special I.Tid, 0)) (Program.get p 2);
  Alcotest.check Util.instr "negative offset"
    (I.Store (I.Global, I.Reg 0, I.Imm 7, -8))
    (Program.get p 3)

let test_labels_and_branches () =
  let p =
    parse
      {| mov r0, 3
         loop:
           sub r0, r0, 1
           bra.nz r0, loop
         bra.z r0, done
         done:
         exit |}
  in
  Alcotest.check Util.instr "backward branch" (I.Jump_if (I.Reg 0, 1)) (Program.get p 2);
  Alcotest.check Util.instr "forward branch" (I.Jump_ifz (I.Reg 0, 4)) (Program.get p 3)

let test_absolute_targets () =
  let p = parse {| mov r0, 1
                   bra @0
                   exit |} in
  Alcotest.check Util.instr "absolute" (I.Jump 0) (Program.get p 1)

let test_specials_and_sync () =
  let p =
    parse
      {| mov r0, %ctaid
         mul r1, r0, %ntid
         max r2, r1, %nctaid
         min r3, r2, %warpid
         bar.sync
         regmutex.acquire
         regmutex.release
         exit |}
  in
  Alcotest.check Util.instr "bar" I.Bar (Program.get p 4);
  Alcotest.check Util.instr "acquire" I.Acquire (Program.get p 5);
  Alcotest.check Util.instr "release" I.Release (Program.get p 6)

let expect_error text =
  match parse text with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Parser.Parse_error _ -> ()

let test_errors () =
  expect_error "frobnicate r1, r2\nexit";
  expect_error "add r1, r2\nexit";          (* arity *)
  expect_error "mov q1, 3\nexit";           (* bad register *)
  expect_error "ld.global r1, r2\nexit";    (* missing brackets *)
  expect_error "mov r1, %bogus\nexit";      (* unknown special *)
  expect_error "bra nowhere\nexit";         (* unresolved label *)
  expect_error "x:\nx:\nexit"               (* duplicate label *)

let test_error_location () =
  match parse "mov r0, 1\nbogus r1\nexit" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Parser.Parse_error e ->
      Alcotest.(check int) "line number" 2 e.Parser.line

let test_disassembly_roundtrip () =
  (* parse (Program.pp p) = p for every workload kernel. *)
  List.iter
    (fun spec ->
      let prog = spec.Workloads.Spec.kernel.Gpu_sim.Kernel.program in
      let text = Format.asprintf "%a" Program.pp prog in
      let reparsed = Parser.parse ~name:prog.Program.name text in
      Alcotest.check Util.program (spec.Workloads.Spec.name ^ " roundtrip") prog reparsed)
    Workloads.Registry.all

let prop_roundtrip_random =
  Util.qtest ~count:60 ~print:Util.print_program
    "pp/parse roundtrip on random kernels"
    (Util.gen_structured ~n_regs:8)
    (fun prog ->
      let text = Format.asprintf "%a" Program.pp prog in
      Program.equal prog (Parser.parse ~name:prog.Program.name text))

(* The [kernel NAME (N regs)] header bounds the registers that follow; the
   error points at the first line naming one at or above [N]. *)
let test_kernel_header () =
  let p = parse "kernel k (2 regs)\nmov r1, 1\nexit" in
  Alcotest.(check int) "within the header" 2 p.Program.n_regs;
  (match parse "kernel k (2 regs)\nmov r0, 1\nmov r9, 1\nmov r8, 1\nexit" with
  | _ -> Alcotest.fail "r9 accepted under a 2-register header"
  | exception Parser.Parse_error e ->
      Alcotest.(check int) "line of the first out-of-range register" 3
        e.Parser.line);
  expect_error "kernel k (2 regs)\nbra.nz r2, @0\nexit";
  expect_error "kernel k\nexit";
  expect_error "kernel k (two regs)\nexit";
  expect_error "kernel k (2 regs)\nkernel k (3 regs)\nexit"

let suite =
  [ Alcotest.test_case "basic instructions" `Quick test_basic;
    Alcotest.test_case "memory operands" `Quick test_memory_ops;
    Alcotest.test_case "labels and branches" `Quick test_labels_and_branches;
    Alcotest.test_case "absolute targets" `Quick test_absolute_targets;
    Alcotest.test_case "specials and sync" `Quick test_specials_and_sync;
    Alcotest.test_case "error cases" `Quick test_errors;
    Alcotest.test_case "error location" `Quick test_error_location;
    Alcotest.test_case "workload disassembly roundtrip" `Quick test_disassembly_roundtrip;
    prop_roundtrip_random;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "kernel header" `Quick test_kernel_header ]
