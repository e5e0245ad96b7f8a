open Gpu_isa
module I = Instr

let roundtrip i =
  let ws = Array.of_list (Codec.encode i) in
  let decoded, next = Codec.decode_one ws ~pos:0 in
  Alcotest.check Util.instr (I.to_string i) i decoded;
  Alcotest.(check int) "consumed all words" (Array.length ws) next

let test_alu_roundtrip () =
  List.iter roundtrip
    [ I.Bin (I.Add, 0, I.Reg 1, I.Reg 2);
      I.Bin (I.Shr, 61, I.Imm (-17), I.Special I.Warp_id);
      I.Bin (I.Xor, 5, I.Param 3, I.Imm 8191);
      I.Bin (I.Mul, 7, I.Imm (-8192), I.Reg 0);
      I.Un (I.Neg, 3, I.Reg 9);
      I.Un (I.Abs, 3, I.Imm (-5));
      I.Mad (4, I.Reg 1, I.Imm 2, I.Reg 3);
      I.Mov (2, I.Special I.Nctaid);
      I.Cmp (I.Ge, 1, I.Reg 2, I.Imm 100);
      I.Sel (0, I.Reg 1, I.Reg 2, I.Reg 3) ]

let test_memory_roundtrip () =
  List.iter roundtrip
    [ I.Load (I.Global, 7, I.Reg 2, 0x10000000);
      I.Load (I.Shared, 0, I.Special I.Tid, -64);
      I.Store (I.Global, I.Reg 1, I.Imm 12, 0x10000000);
      I.Store (I.Shared, I.Imm 3, I.Reg 5, 0) ];
  Alcotest.(check int) "memory ops take two words" 2
    (Codec.size (I.Load (I.Global, 0, I.Reg 0, 0)))

let test_control_roundtrip () =
  List.iter roundtrip
    [ I.Jump 12345;
      I.Jump_if (I.Reg 3, 0);
      I.Jump_ifz (I.Special I.Tid, 999);
      I.Bar; I.Acquire; I.Release; I.Exit ]

let test_unencodable () =
  Alcotest.(check bool) "huge immediate" false
    (Codec.encodable_instr (I.Mov (0, I.Imm 2654435761)));
  Alcotest.(check bool) "boundary immediate fits" true
    (Codec.encodable_instr (I.Mov (0, I.Imm 8191)));
  Alcotest.(check bool) "just past boundary" false
    (Codec.encodable_instr (I.Mov (0, I.Imm 8192)));
  Alcotest.(check bool) "raises on encode" true
    (try ignore (Codec.encode (I.Mov (0, I.Imm 1_000_000))); false
     with Codec.Unencodable _ -> true)

let test_program_roundtrip () =
  let p = Util.diamond in
  Alcotest.(check bool) "diamond encodable" true (Codec.encodable p);
  let ws = Codec.encode_program p in
  let q = Codec.decode_program ~name:"diamond" ws in
  Alcotest.check Util.program "roundtrip" p q;
  Alcotest.(check int) "code bytes" (8 * Array.length ws) (Codec.code_bytes p)

let test_workload_roundtrip () =
  (* Workloads with only small immediates round-trip bit-exactly. *)
  let count = ref 0 in
  List.iter
    (fun spec ->
      let prog = spec.Workloads.Spec.kernel.Gpu_sim.Kernel.program in
      if Codec.encodable prog then begin
        incr count;
        let q = Codec.decode_program ~name:prog.Program.name (Codec.encode_program prog) in
        Alcotest.check Util.program (spec.Workloads.Spec.name ^ " roundtrip") prog q
      end)
    Workloads.Registry.all;
  Alcotest.(check bool) "most workloads encodable" true (!count >= 10)

let test_decode_errors () =
  Alcotest.(check bool) "unknown opcode" true
    (try ignore (Codec.decode_one [| Int64.shift_left 63L 58 |] ~pos:0); false
     with Codec.Unencodable _ -> true);
  Alcotest.(check bool) "truncated memory op" true
    (try
       let header = List.hd (Codec.encode (I.Load (I.Global, 0, I.Reg 0, 4))) in
       ignore (Codec.decode_one [| header |] ~pos:0);
       false
     with Codec.Unencodable _ -> true);
  Alcotest.(check bool) "position out of range" true
    (try ignore (Codec.decode_one [||] ~pos:0); false
     with Codec.Unencodable _ -> true)

let prop_roundtrip_random =
  Util.qtest ~count:80 ~print:Util.print_program
    "encode/decode roundtrip on random kernels"
    (Util.gen_structured ~n_regs:8)
    (fun prog ->
      (not (Codec.encodable prog))
      || Program.equal prog
           (Codec.decode_program ~name:prog.Program.name (Codec.encode_program prog)))

let suite =
  [ Alcotest.test_case "ALU roundtrip" `Quick test_alu_roundtrip;
    Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
    Alcotest.test_case "control roundtrip" `Quick test_control_roundtrip;
    Alcotest.test_case "unencodable immediates" `Quick test_unencodable;
    Alcotest.test_case "program roundtrip" `Quick test_program_roundtrip;
    Alcotest.test_case "workload roundtrip" `Quick test_workload_roundtrip;
    Alcotest.test_case "decode errors" `Quick test_decode_errors;
    prop_roundtrip_random ]
