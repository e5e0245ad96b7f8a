(* One analysis per program: [Facts] must give what the stand-alone
   analyses give, compute each fact once, and keep a family's programs
   apart. *)

open Gpu_analysis
module Program = Gpu_isa.Program

let liveness_equal (a : Liveness.t) (b : Liveness.t) =
  a.Liveness.live_in = b.Liveness.live_in && a.Liveness.live_out = b.Liveness.live_out

(* Every workload and fuzz kernel: both liveness flavours, dominators and
   the reconvergence table equal the stand-alone analyses, whichever
   order they are read in (widening works on a copy of the dataflow). *)
let test_matches_standalone () =
  let progs =
    List.map (fun s -> s.Workloads.Spec.kernel.Gpu_sim.Kernel.program) Workloads.Registry.all
    @ List.init 100 (fun seed -> (Fuzz.Gen.generate ~seed).Fuzz.Gen.program)
  in
  List.iter
    (fun prog ->
      let name = prog.Program.name in
      let facts = Facts.of_program prog in
      let widened = Facts.liveness facts and narrow = Facts.liveness ~widen:false facts in
      if not (liveness_equal widened (Liveness.analyze prog)) then
        Alcotest.failf "%s: widened liveness differs" name;
      if not (liveness_equal narrow (Liveness.analyze ~widen:false prog)) then
        Alcotest.failf "%s: narrow liveness differs" name;
      if Facts.reconv facts <> Reconv.table prog then
        Alcotest.failf "%s: reconvergence table differs" name;
      let dom = Facts.dominance facts and cfg = Facts.cfg facts in
      let dom' = Dominance.compute (Cfg.of_program prog) in
      for b = 0 to Cfg.n_blocks cfg - 1 do
        if Dominance.idom dom b <> Dominance.idom dom' b
           || Dominance.ipostdom dom b <> Dominance.ipostdom dom' b
        then Alcotest.failf "%s: dominators of block %d differ" name b
      done)
    progs

(* Each fact is computed once: reading it again returns the same value. *)
let test_computed_once () =
  let facts = Facts.of_program Util.diamond in
  Alcotest.(check bool) "widened liveness" true
    (Facts.liveness facts == Facts.liveness facts);
  Alcotest.(check bool) "dominance" true (Facts.dominance facts == Facts.dominance facts);
  Alcotest.(check bool) "cfg" true (Facts.cfg facts == Facts.cfg facts)

(* A rewrite that changed nothing keeps its input's analyses but hands
   back the caller's program value; a register renaming shares the
   dominators and gets its own liveness. *)
let test_derive () =
  let facts = Facts.of_program Util.diamond in
  let copy = Program.map_instrs (fun _ i -> i) Util.diamond in
  let same = Facts.derive facts copy in
  Alcotest.(check bool) "caller's program" true (Facts.program same == copy);
  Alcotest.(check bool) "input's liveness" true
    (Facts.liveness same == Facts.liveness facts);
  let n = Util.diamond.Program.n_regs in
  let renamed =
    Facts.derive facts
      (Program.map_instrs
         (fun _ i -> Gpu_isa.Instr.map_regs (fun r -> n - 1 - r) i)
         Util.diamond)
  in
  Alcotest.(check bool) "renaming shares dominators" true
    (Facts.dominance renamed == Facts.dominance facts);
  Alcotest.(check bool) "renaming has its own liveness" false
    (liveness_equal (Facts.liveness renamed) (Facts.liveness facts))

(* A rewrite is kept with the source facts: the same |Bs| (at any |Es|)
   gets the same transformed program, another |Bs| or other options
   their own. *)
let test_compile_memo () =
  let module T = Regmutex.Transform in
  let prog = (Workloads.Registry.find "SAD").Workloads.Spec.kernel.Gpu_sim.Kernel.program in
  let facts = Facts.of_program prog in
  let n = prog.Program.n_regs in
  let compiled ?options ?(es = 4) bs =
    (fst (T.compile ?options ~bs ~es facts)).T.transformed
  in
  Alcotest.(check bool) "same split, same program" true
    (compiled (n - 4) == compiled (n - 4));
  Alcotest.(check bool) "another |Es|, same program" true
    (compiled (n - 4) == compiled ~es:6 (n - 4));
  Alcotest.(check int) "the plan records its own |Es|" 6
    (fst (T.compile ~bs:(n - 4) ~es:6 facts)).T.es;
  Alcotest.(check bool) "another |Bs|, its own program" false
    (compiled (n - 4) == compiled ~es:6 (n - 6));
  let options = { T.default_options with T.mov_compact = false } in
  Alcotest.(check bool) "other options, their own program" false
    (compiled ~options (n - 4) == compiled (n - 4));
  Alcotest.(check bool) "the kept program is the compiled one" true
    (Gpu_isa.Program.equal (compiled (n - 4))
       (T.apply ~bs:(n - 4) ~es:4 prog).T.transformed)

let suite =
  [ Alcotest.test_case "matches the stand-alone analyses" `Quick test_matches_standalone;
    Alcotest.test_case "each fact computed once" `Quick test_computed_once;
    Alcotest.test_case "derive shares analyses, not programs" `Quick test_derive;
    Alcotest.test_case "a compile is kept with its source" `Quick test_compile_memo ]
