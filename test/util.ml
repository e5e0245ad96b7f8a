(* Shared helpers for the test suite: tiny program builders, Alcotest
   testables, a generator of random structured (always-terminating)
   kernels for property-based tests, simulation shorthands, the
   telemetry trace's record decoder, and a temporary result store. *)

open Gpu_isa

let regset = Alcotest.testable Regset.pp Regset.equal
let instr = Alcotest.testable Instr.pp Instr.equal
let program = Alcotest.testable Program.pp Program.equal

let instr_space =
  Alcotest.testable
    (fun ppf sp -> Format.pp_print_string ppf (Instr.space_name sp))
    ( = )

(* --- tiny programs ---------------------------------------------------- *)

(* Straight line: r0=1; r1=r0+2; r2=r0*r1; store r2; exit *)
let straight =
  Builder.(
    assemble ~name:"straight"
      [ mov 0 (imm 1);
        add 1 (r 0) (imm 2);
        mul 2 (r 0) (r 1);
        store Instr.Global (imm 64) (r 2);
        exit_ ])

(* Diamond: the paper's Figure 3 shape. *)
let diamond =
  Builder.(
    assemble ~name:"diamond"
      [ mov 0 (imm 5);        (* 0: R0 defined before the branch *)
        mov 1 (imm 7);        (* 1: R1 used in both arms *)
        and_ 2 (r 0) (imm 1); (* 2: condition *)
        bz (r 2) "else_";     (* 3 *)
        add 3 (r 0) (r 1);    (* 4: then-arm defines R3 *)
        bra "join";           (* 5 *)
        label "else_";
        sub 3 (r 1) (imm 1);  (* 6: else-arm defines R3 *)
        label "join";
        store Instr.Global (imm 64) (r 3); (* 7: R3 used at the join *)
        exit_ ])

(* Counted loop accumulating into r1. *)
let loop =
  Builder.(
    assemble ~name:"loop"
      ([ mov 1 (imm 0) ]
      @ Workloads.Shape.counted_loop ~ctr:0 ~trips:(imm 5) ~name:"l"
          [ add 1 (r 1) (imm 3); mul 2 (r 1) (imm 2); add 1 (r 1) (r 2) ]
      @ [ store Instr.Global (imm 64) (r 1); exit_ ]))

(* --- random structured kernels ---------------------------------------- *)

(* Programs built from this generator always terminate: control flow is
   restricted to counted loops and if/else diamonds. Registers 0..n_regs-1;
   every generated program stores its accumulator and exits. *)
let gen_structured ~n_regs : Program.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let fresh =
    let counter = ref 0 in
    fun () -> incr counter; Printf.sprintf "g%d" !counter
  in
  (* The two highest registers are reserved as loop counters (one per
     nesting level) so generated bodies can never clobber a counter —
     which would make a counted loop spin forever. *)
  let reg = int_bound (n_regs - 3) in
  let operand =
    oneof
      [ map (fun r -> Instr.Reg r) reg;
        map (fun n -> Instr.Imm n) (int_bound 1000);
        return (Instr.Special Instr.Tid) ]
  in
  let alu =
    let* d = reg and* a = operand and* b = operand in
    let* op =
      oneofl Instr.[ Add; Sub; Mul; And; Or; Xor; Min; Max; Shl; Shr; Div; Rem ]
    in
    return (Builder.bin op d a b)
  in
  (* [Fuzz.Gen]'s address discipline: addresses are masked into
     [0, 0x1FFF]; loads read there, and stores land in the disjoint window
     at 0x10000000, so no load reads what a warp stored and every warp's
     store trace depends on the program alone, not on the schedule. *)
  let masked t a = Builder.and_ t a (Builder.imm Fuzz.Gen.load_mask) in
  let load_item =
    let* d = reg and* a = operand in
    return [ masked d a; Builder.load Instr.Global d (Builder.r d) ]
  in
  let store_item =
    let* t = reg and* a = operand and* v = operand in
    return
      [ masked t a;
        Builder.store ~ofs:Fuzz.Gen.store_base Instr.Global (Builder.r t) v ]
  in
  let leaf =
    frequency [ (6, map (fun i -> [ i ]) alu); (2, load_item); (1, store_item) ]
  in
  let rec block depth =
    let* items = map List.concat (list_size (int_range 1 6) leaf) in
    if depth = 0 then return items
    else
      let* tail =
        frequency
          [ (2, return []);
            (2,
             (* if/else diamond *)
             let* c = reg and* then_b = block (depth - 1) and* else_b = block (depth - 1) in
             let le = fresh () and lj = fresh () in
             return
               ([ Builder.bz (Builder.r c) le ]
               @ then_b
               @ [ Builder.bra lj; Builder.label le ]
               @ else_b
               @ [ Builder.label lj ]));
            (1,
             (* counted loop on a reserved per-depth counter register *)
             let* trips = int_range 1 4 and* body = block (depth - 1) in
             let ctr = n_regs - 1 - (depth - 1) in
             return
               (Workloads.Shape.counted_loop ~ctr ~trips:(Builder.imm trips)
                  ~name:(fresh ()) body)) ]
      in
      return (items @ tail)
  in
  let* body = block 2 in
  let items =
    body
    @ [ masked 0 (Builder.r 0);
        Builder.store ~ofs:Fuzz.Gen.store_base Instr.Global (Builder.r 0) (Builder.r 1);
        Builder.exit_ ]
  in
  return (Builder.assemble ~name:"gen" items)

(* A generated kernel as QCheck shows a failing (shrunk) case. *)
let print_program = Format.asprintf "%a" Program.pp

(* --- simulation shorthands --------------------------------------------- *)

let small_arch =
  { Gpu_uarch.Arch_config.gtx480 with n_sms = 1; dram_interval = 1.0 }

let run_with ?(arch = small_arch) ?(grid = 2) ?(threads = 64) ?(params = [||])
    policy prog =
  let kernel =
    Gpu_sim.Kernel.make ~name:"t" ~grid_ctas:grid ~cta_threads:threads ~params prog
  in
  let config =
    { (Gpu_sim.Gpu.default_config arch policy) with
      Gpu_sim.Gpu.record_stores = true;
      max_cycles = 2_000_000 }
  in
  Gpu_sim.Gpu.run config kernel

let static_policy prog =
  Gpu_sim.Policy.Static { regs_per_thread = prog.Program.n_regs }

(* Observable behaviour: per-warp store traces. *)
let traces stats = Gpu_sim.Stats.store_traces stats

let check_same_traces msg a b =
  (* Delegates to the library's own differ so the tests and the fuzz
     oracle agree on what "same behaviour" means. *)
  match Regmutex.Checker.diff_store_traces ~expected:a ~actual:b with
  | None -> ()
  | Some diff -> Alcotest.failf "%s: %s" msg diff

(* Every result counter of [Stats.table] (the work counters differ
   between execution modes by design); the first that differs fails by
   name. *)
let check_same_counters msg a b =
  match Gpu_sim.Stats.(first_difference (counters a) (counters b)) with
  | Some (name, x, y) -> Alcotest.failf "%s: %s = %d vs %d" msg name x y
  | None -> ()

(* The records a telemetry trace retained, oldest first: the one decoder
   of the simulator's event stream the suites share. *)
let records trace =
  let acc = ref [] in
  Telemetry.Trace.iter trace (fun r -> acc := r :: !acc);
  List.rev !acc

let named name rs = List.filter (fun r -> r.Telemetry.Trace.name = name) rs

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [f dir] with the engine's result store rooted at a fresh [dir] and its
   in-memory caches empty; the directory is removed afterwards. *)
let with_store_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "regmutex-store-%d" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
  @@ fun () ->
  Experiments.Engine.set_cache_dir (Some dir);
  Experiments.Engine.clear ();
  f dir

(* [print] renders a failing (shrunk) input in the report. *)
let qtest ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)
