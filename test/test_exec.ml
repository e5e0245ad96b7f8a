open Gpu_sim
module I = Gpu_isa.Instr

let make_ctx ?(regs = Array.make 8 0) ?(params = [| 10; 20 |]) () =
  let shared = Array.make 16 0 in
  let memory = Memory.create () in
  ( {
      Exec.regs;
      params;
      tid = 32;
      ctaid = 2;
      ntid = 128;
      nctaid = 4;
      warp_id = 1;
      shared;
      spill_words = 0;
      memory;
      stats = Stats.create ();
      record_stores = false;
      lanes = 0;
      n_regs = Array.length regs;
      base = 0;
      lane = -1;
      leader = true;
      taken = 0;
    },
    shared,
    memory )

let step ctx i = Exec.step ctx i

let test_binops () =
  let ctx, _, _ = make_ctx () in
  let check name op a b expected =
    ignore (step ctx (I.Bin (op, 0, I.Imm a, I.Imm b)));
    Alcotest.(check int) name expected ctx.Exec.regs.(0)
  in
  check "add" I.Add 3 4 7;
  check "sub" I.Sub 3 4 (-1);
  check "mul" I.Mul 3 4 12;
  check "div" I.Div 12 4 3;
  check "div by zero" I.Div 12 0 0;
  check "rem" I.Rem 13 4 1;
  check "rem by zero" I.Rem 13 0 0;
  check "min" I.Min 3 4 3;
  check "max" I.Max 3 4 4;
  check "and" I.And 12 10 8;
  check "or" I.Or 12 10 14;
  check "xor" I.Xor 12 10 6;
  check "shl" I.Shl 1 4 16;
  check "shl masked" I.Shl 1 33 2;
  check "shr" I.Shr 16 2 4;
  check "shr negative (arithmetic)" I.Shr (-16) 2 (-4)

let test_unops_cmp_sel () =
  let ctx, _, _ = make_ctx () in
  ignore (step ctx (I.Un (I.Neg, 0, I.Imm 5)));
  Alcotest.(check int) "neg" (-5) ctx.Exec.regs.(0);
  ignore (step ctx (I.Un (I.Abs, 0, I.Imm (-7))));
  Alcotest.(check int) "abs" 7 ctx.Exec.regs.(0);
  ignore (step ctx (I.Un (I.Not, 0, I.Imm 0)));
  Alcotest.(check int) "not" (-1) ctx.Exec.regs.(0);
  ignore (step ctx (I.Cmp (I.Lt, 1, I.Imm 3, I.Imm 4)));
  Alcotest.(check int) "lt true" 1 ctx.Exec.regs.(1);
  ignore (step ctx (I.Cmp (I.Ge, 1, I.Imm 3, I.Imm 4)));
  Alcotest.(check int) "ge false" 0 ctx.Exec.regs.(1);
  ignore (step ctx (I.Sel (2, I.Imm 1, I.Imm 10, I.Imm 20)));
  Alcotest.(check int) "sel taken" 10 ctx.Exec.regs.(2);
  ignore (step ctx (I.Sel (2, I.Imm 0, I.Imm 10, I.Imm 20)));
  Alcotest.(check int) "sel not taken" 20 ctx.Exec.regs.(2)

let test_mad_mov () =
  let ctx, _, _ = make_ctx () in
  ignore (step ctx (I.Mad (0, I.Imm 3, I.Imm 4, I.Imm 5)));
  Alcotest.(check int) "mad" 17 ctx.Exec.regs.(0);
  ignore (step ctx (I.Mov (1, I.Reg 0)));
  Alcotest.(check int) "mov reg" 17 ctx.Exec.regs.(1)

let test_specials_params () =
  let ctx, _, _ = make_ctx () in
  Alcotest.(check int) "tid" 32 (Exec.operand ctx (I.Special I.Tid));
  Alcotest.(check int) "ctaid" 2 (Exec.operand ctx (I.Special I.Ctaid));
  Alcotest.(check int) "ntid" 128 (Exec.operand ctx (I.Special I.Ntid));
  Alcotest.(check int) "nctaid" 4 (Exec.operand ctx (I.Special I.Nctaid));
  Alcotest.(check int) "warp_id" 1 (Exec.operand ctx (I.Special I.Warp_id));
  Alcotest.(check int) "param" 20 (Exec.operand ctx (I.Param 1));
  Alcotest.(check int) "missing param reads 0" 0 (Exec.operand ctx (I.Param 9))

let test_memory_ops () =
  let ctx, shared, memory = make_ctx () in
  ignore (step ctx (I.Store (I.Shared, I.Imm 3, I.Imm 42, 0)));
  Alcotest.(check int) "shared written" 42 shared.(3);
  ignore (step ctx (I.Load (I.Shared, 0, I.Imm 1, 2)));
  Alcotest.(check int) "shared load with offset" 42 ctx.Exec.regs.(0);
  ignore (step ctx (I.Store (I.Global, I.Imm 100, I.Imm 7, 4)));
  Alcotest.(check int) "global written at addr+ofs" 7 (Memory.read_global memory 104);
  ignore (step ctx (I.Load (I.Global, 1, I.Imm 5, 0)));
  Alcotest.(check int) "global default read" (Memory.default_value 5)
    ctx.Exec.regs.(1)

let test_shared_oob_wraps () =
  let ctx, shared, _ = make_ctx () in
  (* Address 19 wraps into the 16-word CTA allocation (19 mod 16 = 3) and
     the excursion is counted, not crashed on. *)
  ignore (step ctx (I.Store (I.Shared, I.Imm 19, I.Imm 5, 0)));
  Alcotest.(check int) "wrapped write" 5 shared.(3);
  Alcotest.(check int) "oob counted" 1 ctx.Exec.stats.Stats.shared_oob;
  ignore (step ctx (I.Load (I.Shared, 0, I.Imm (-13), 0)));
  Alcotest.(check int) "negative address wraps" 5 ctx.Exec.regs.(0);
  Alcotest.(check int) "second excursion counted" 2 ctx.Exec.stats.Stats.shared_oob

let test_store_recording () =
  let ctx, _, _ = make_ctx () in
  let ctx = { ctx with Exec.record_stores = true } in
  ignore (step ctx (I.Store (I.Shared, I.Imm 2, I.Imm 9, 0)));
  ignore (step ctx (I.Store (I.Global, I.Imm 50, I.Imm 4, 0)));
  match Stats.store_traces ctx.Exec.stats with
  | [ ((cta, warp), trace ) ] ->
      Alcotest.(check (pair int int)) "keyed by cta/warp" (2, 1) (cta, warp);
      Alcotest.(check int) "both stores recorded" 2 (List.length trace)
  | l -> Alcotest.failf "expected one warp's trace, got %d" (List.length l)

let test_outcomes () =
  let ctx, _, _ = make_ctx () in
  Alcotest.(check bool) "next" true (step ctx (I.Mov (0, I.Imm 1)) = Exec.Next);
  Alcotest.(check bool) "goto" true (step ctx (I.Jump 7) = Exec.Goto 7);
  Alcotest.(check bool) "taken" true (step ctx (I.Jump_if (I.Imm 1, 3)) = Exec.Goto 3);
  Alcotest.(check bool) "not taken" true (step ctx (I.Jump_if (I.Imm 0, 3)) = Exec.Next);
  Alcotest.(check bool) "ifz taken" true (step ctx (I.Jump_ifz (I.Imm 0, 3)) = Exec.Goto 3);
  Alcotest.(check bool) "stop" true (step ctx I.Exit = Exec.Stop);
  Alcotest.(check bool) "sync" true (step ctx I.Bar = Exec.Sync);
  Alcotest.(check bool) "acq" true (step ctx I.Acquire = Exec.Acq);
  Alcotest.(check bool) "rel" true (step ctx I.Release = Exec.Rel)

(* [Exec.decode] against [Exec.step], the reference: one random
   instruction on two identical random contexts must give the same
   outcome, registers, shared and global memory, store traces (warp and
   lane) and statistics. The generator reaches every opcode and operand
   kind, parameters past the end of the array, zero divisors, shift counts
   past 31, shared and spill addresses on both sides of their windows,
   and store recording with and without lane traces. *)
type exec_case = {
  instr : I.t;
  regs : int array;
  params : int array;
  shared_words : int;
  spill_words : int;
  record_stores : bool;
  lanes : int;
  written : (int * int) list;  (* global words stored before the step *)
}

let all_specials = [ I.Tid; I.Ctaid; I.Ntid; I.Nctaid; I.Warp_id; I.Lane_id ]

let gen_exec_case_with ~specials =
  let open QCheck2.Gen in
  let n_regs = 6 in
  let reg = int_bound (n_regs - 1) in
  (* Registers and immediates dominate, so every specialised form of
     [decode] is drawn many times per run. *)
  let operand =
    frequency
      [ (3, map (fun r -> I.Reg r) reg);
        ( 3,
          map (fun n -> I.Imm n)
            (oneof [ int_range (-40) 40; oneofl [ 0; 31; 33; 64 ] ]) );
        ( 1,
          map (fun sp -> I.Special sp)
            (oneofl specials) );
        (1, map (fun i -> I.Param i) (int_bound 4)) ]
  in
  let space = oneofl [ I.Global; I.Shared; I.Spill ] in
  let target = int_bound 20 in
  let ofs = int_range (-4) 24 in
  let instr =
    oneof
      [ map4 (fun op d a b -> I.Bin (op, d, a, b))
          (oneofl
             [ I.Add; I.Sub; I.Mul; I.Div; I.Rem; I.Min; I.Max; I.And; I.Or; I.Xor;
               I.Shl; I.Shr ])
          reg operand operand;
        map3
          (fun op d a -> I.Un (op, d, a))
          (oneofl [ I.Neg; I.Not; I.Abs ])
          reg operand;
        map4 (fun d a b c -> I.Mad (d, a, b, c)) reg operand operand operand;
        map2 (fun d a -> I.Mov (d, a)) reg operand;
        map4 (fun op d a b -> I.Cmp (op, d, a, b))
          (oneofl [ I.Eq; I.Ne; I.Lt; I.Le; I.Gt; I.Ge ])
          reg operand operand;
        map4 (fun d c a b -> I.Sel (d, c, a, b)) reg operand operand operand;
        map4 (fun sp d a o -> I.Load (sp, d, a, o)) space reg operand ofs;
        map4 (fun sp a v o -> I.Store (sp, a, v, o)) space operand operand ofs;
        map (fun t -> I.Jump t) target;
        map2 (fun c t -> I.Jump_if (c, t)) operand target;
        map2 (fun c t -> I.Jump_ifz (c, t)) operand target;
        oneofl [ I.Bar; I.Acquire; I.Release; I.Exit ] ]
  in
  let* instr = instr in
  let* regs =
    array_size (return n_regs) (oneof [ int_range (-20) 40; oneofl [ 0; 32; 35 ] ])
  in
  let* params = array_size (int_bound 3) (int_range (-5) 50) in
  let* shared_words = int_range 8 16 in
  let* spill_words = int_bound 4 in
  let* record_stores = bool in
  let* lanes = oneofl [ 0; 3 ] in
  let* written =
    list_size (int_bound 3) (pair (int_range (-10) 40) (int_bound 99))
  in
  return
    { instr; regs; params; shared_words; spill_words; record_stores; lanes; written }

let gen_exec_case = gen_exec_case_with ~specials:all_specials

let print_exec_case c =
  Printf.sprintf "%s regs=[%s] params=[%s] shared=%d spill=%d record=%b lanes=%d"
    (I.to_string c.instr)
    (String.concat ";" (Array.to_list (Array.map string_of_int c.regs)))
    (String.concat ";" (Array.to_list (Array.map string_of_int c.params)))
    c.shared_words c.spill_words c.record_stores c.lanes

let exec_ctx c =
  let memory = Memory.create () in
  List.iter (fun (a, v) -> Memory.write_global memory a v) c.written;
  {
    Exec.regs = Array.copy c.regs;
    params = c.params;
    tid = 32;
    ctaid = 2;
    ntid = 128;
    nctaid = 4;
    warp_id = 1;
    shared = Array.init c.shared_words (fun i -> 100 + i);
    spill_words = c.spill_words;
    memory;
    stats = Stats.create ();
    record_stores = c.record_stores;
    lanes = c.lanes;
    n_regs = Array.length c.regs;
    base = 0;
    lane = -1;
    leader = true;
    taken = 0;
  }

let prop_decode_matches_step =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~print:print_exec_case
       ~name:"decode matches step" gen_exec_case (fun c ->
         let want_ctx = exec_ctx c and got_ctx = exec_ctx c in
         let want = Exec.step want_ctx c.instr in
         let got = Exec.decode c.instr got_ctx in
         got = want
         && got_ctx.Exec.regs = want_ctx.Exec.regs
         && got_ctx.Exec.shared = want_ctx.Exec.shared
         && Memory.written got_ctx.Exec.memory = Memory.written want_ctx.Exec.memory
         && Stats.store_traces got_ctx.Exec.stats
            = Stats.store_traces want_ctx.Exec.stats
         && Stats.lane_store_traces got_ctx.Exec.stats
            = Stats.lane_store_traces want_ctx.Exec.stats
         (* Every counter, and the recorded traces once more. *)
         && got_ctx.Exec.stats = want_ctx.Exec.stats))

(* Collapse is exact: one decoded instruction run through the n-lane
   driver, every lane's segment holding the same row, must match the
   warp-level (n = 1) call on that row — every lane ends with the row the
   warp-level call leaves, the outcome agrees (a branch is taken by all
   lanes or none), and so do memory, every counter including
   [shared_oob], the warp store trace (one entry, from the leader) and
   each lane's trace. [%laneid] is left out: it is the one operand that
   tells lanes apart, and the SM expands a warp before reading it. *)
let prop_lanes_match_warp_level =
  let lanes = 4 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~print:print_exec_case
       ~name:"n-lane driver matches the warp-level call"
       (QCheck2.Gen.map
          (fun c -> { c with lanes })
          (gen_exec_case_with
             ~specials:(List.filter (( <> ) I.Lane_id) all_specials)))
       (fun c ->
         let n = Array.length c.regs and mask = (1 lsl lanes) - 1 in
         let f = Exec.decode c.instr in
         let want_ctx = exec_ctx c and got_ctx = exec_ctx c in
         got_ctx.Exec.regs <- Array.concat (List.init lanes (fun _ -> c.regs));
         let want = f want_ctx in
         let got = Exec.run_lanes got_ctx f ~mask ~stride:n in
         got = want
         && got_ctx.Exec.taken
            = (match want with Exec.Goto _ -> mask | _ -> 0)
         && List.for_all
              (fun l -> Array.sub got_ctx.Exec.regs (l * n) n = want_ctx.Exec.regs)
              (List.init lanes Fun.id)
         && got_ctx.Exec.shared = want_ctx.Exec.shared
         && Memory.written got_ctx.Exec.memory = Memory.written want_ctx.Exec.memory
         && Stats.store_traces got_ctx.Exec.stats
            = Stats.store_traces want_ctx.Exec.stats
         && Stats.lane_store_traces got_ctx.Exec.stats
            = Stats.lane_store_traces want_ctx.Exec.stats
         && got_ctx.Exec.stats = want_ctx.Exec.stats
         (* The driver hands the context back at warp level. *)
         && got_ctx.Exec.base = 0 && got_ctx.Exec.lane = -1 && got_ctx.Exec.leader))

let suite =
  [ Alcotest.test_case "binary operators" `Quick test_binops;
    Alcotest.test_case "unops / cmp / sel" `Quick test_unops_cmp_sel;
    Alcotest.test_case "mad / mov" `Quick test_mad_mov;
    Alcotest.test_case "specials and params" `Quick test_specials_params;
    Alcotest.test_case "memory operations" `Quick test_memory_ops;
    Alcotest.test_case "shared OOB wraps and counts" `Quick test_shared_oob_wraps;
    Alcotest.test_case "store recording" `Quick test_store_recording;
    Alcotest.test_case "control outcomes" `Quick test_outcomes;
    prop_decode_matches_step;
    prop_lanes_match_warp_level ]
