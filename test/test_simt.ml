(* The SIMT execution subsystem: lane-resolved register values, predicated
   execution under an active mask, and the IPDOM reconvergence stack.
   Covers the reconvergence table, per-lane store traces through diamonds
   and data-dependent loops, a lane that exits before its first store, the
   divergent registry kernel, and the collapsed warp state (a warp runs on
   one register row until its first [%laneid] read, and must be
   indistinguishable from a lane-resolved run). *)

open Gpu_isa
module Stats = Gpu_sim.Stats
module Runner = Regmutex.Runner
module Technique = Regmutex.Technique
module Checker = Regmutex.Checker

let warp_size = Util.small_arch.Gpu_uarch.Arch_config.warp_size

(* Like {!Util.run_with} but under the per-lane model, with lane-store
   recording on. *)
let run_simt ?(arch = Util.small_arch) ?policy ?(grid = 1) ?(threads = 64)
    ?(lane_resolved = false) ?(fast_forward = true) prog =
  let kernel =
    Gpu_sim.Kernel.make ~name:"t" ~grid_ctas:grid ~cta_threads:threads
      ~params:[||] prog
  in
  let policy =
    match policy with Some p -> p | None -> Util.static_policy prog
  in
  let config =
    { (Gpu_sim.Gpu.default_config arch policy) with
      Gpu_sim.Gpu.record_stores = true;
      simt = true;
      lane_resolved;
      fast_forward;
      max_cycles = 2_000_000 }
  in
  Gpu_sim.Gpu.run config kernel

(* Each lane takes one of two arms on its own parity and stores a
   lane-derived value at a thread-unique address. *)
let lane_diamond =
  Builder.(
    assemble ~name:"lane_diamond"
      [ mov 0 lane_id;
        and_ 1 (r 0) (imm 1);
        bz (r 1) "even";
        mul 2 (r 0) (imm 3);      (* odd lanes: 3*lane *)
        bra "join";
        label "even";
        add 2 (r 0) (imm 100);    (* even lanes: lane+100 *)
        label "join";
        add 3 tid lane_id;
        mul 3 (r 3) (imm 4);
        store ~ofs:0x10000000 Instr.Global (r 3) (r 2);
        exit_ ])

let test_lane_diamond () =
  let stats = run_simt ~grid:1 ~threads:64 lane_diamond in
  let traces = Stats.lane_store_traces stats in
  Alcotest.(check int) "one trace per lane" 64 (List.length traces);
  List.iter
    (fun ((cta, w, l), stores) ->
      Alcotest.(check int) "single CTA" 0 cta;
      let expected_value = if l land 1 = 1 then 3 * l else l + 100 in
      let expected_addr = 0x10000000 + (4 * ((w * warp_size) + l)) in
      Alcotest.(check (list (triple Util.instr_space int int)))
        (Printf.sprintf "warp %d lane %d" w l)
        [ (Instr.Global, expected_addr, expected_value) ]
        stores)
    traces

(* Lane l runs the loop (l mod 4)+1 times, storing once per trip — the
   reconvergence stack must keep the slow lanes live while the fast lanes
   sit predicated off. *)
let lane_loop =
  Builder.(
    assemble ~name:"lane_loop"
      ([ mov 0 lane_id;
         and_ 2 (r 0) (imm 3);
         add 2 (r 2) (imm 1);
         add 3 tid lane_id;
         mul 3 (r 3) (imm 4) ]
      @ Workloads.Shape.counted_loop ~ctr:5 ~trips:(r 2) ~name:"l"
          [ store ~ofs:0x10000000 Instr.Global (r 3) (r 0) ]
      @ [ exit_ ]))

let test_lane_loop_trips () =
  let stats = run_simt ~grid:1 ~threads:64 lane_loop in
  let traces = Stats.lane_store_traces stats in
  Alcotest.(check int) "one trace per lane" 64 (List.length traces);
  List.iter
    (fun ((_, w, l), stores) ->
      Alcotest.(check int)
        (Printf.sprintf "warp %d lane %d trip count" w l)
        ((l land 3) + 1)
        (List.length stores);
      List.iter
        (fun (_, _, v) ->
          Alcotest.(check int) "stored its lane id" l v)
        stores)
    traces;
  Alcotest.(check bool) "fast lanes sat predicated off" true
    (stats.Stats.predicated_lane_cycles > 0)

(* A branch all active lanes agree on must not split the warp: no
   divergence counted, no lanes predicated off, and the dead arm's store
   never lands. *)
let test_uniform_branch_no_divergence () =
  let prog =
    Builder.(
      assemble ~name:"uniform_branch"
        [ mov 0 (imm 1);
          bz (r 0) "dead";            (* never taken: r0 is 1 everywhere *)
          add 1 tid lane_id;
          mul 1 (r 1) (imm 4);
          store ~ofs:0x10000000 Instr.Global (r 1) (imm 7);
          bra "end";
          label "dead";
          store ~ofs:0x20000000 Instr.Global (imm 0) (imm 666);
          label "end";
          exit_ ])
  in
  let stats = run_simt ~grid:1 ~threads:64 prog in
  Alcotest.(check int) "no divergent branches" 0 stats.Stats.divergent_branches;
  Alcotest.(check int) "no predicated-off lanes" 0
    stats.Stats.predicated_lane_cycles;
  List.iter
    (fun (_, stores) ->
      List.iter
        (fun (_, _, v) ->
          Alcotest.(check int) "dead arm never stored" 7 v)
        stores)
    (Stats.lane_store_traces stats)

(* The reconvergence table: the diamond's branch reconverges at the first
   join instruction; everything that is not a conditional branch holds the
   sentinel. *)
let test_reconv_table_diamond () =
  let module Reconv = Gpu_analysis.Reconv in
  let table = Reconv.table Util.diamond in
  let sentinel = Reconv.sentinel Util.diamond in
  Alcotest.(check int) "one entry per instruction"
    (Program.length Util.diamond)
    (Array.length table);
  (* 0 mov, 1 mov, 2 and, 3 bz, 4 add, 5 bra, 6 sub, 7 store, 8 exit:
     the bz at 3 reconverges at the join store (7). *)
  Alcotest.(check int) "diamond branch reconverges at the join" 7 table.(3);
  Array.iteri
    (fun i instr ->
      match instr with
      | Instr.Jump_if _ | Instr.Jump_ifz _ -> ()
      | _ ->
          Alcotest.(check int)
            (Printf.sprintf "non-conditional pc %d holds the sentinel" i)
            sentinel table.(i))
    Util.diamond.Program.body

let test_reconv_table_workloads () =
  let module Reconv = Gpu_analysis.Reconv in
  List.iter
    (fun spec ->
      let prog = spec.Workloads.Spec.kernel.Gpu_sim.Kernel.program in
      let table = Reconv.table prog in
      let len = Program.length prog in
      let sentinel = Reconv.sentinel prog in
      Alcotest.(check int)
        (spec.Workloads.Spec.name ^ ": table length")
        len (Array.length table);
      Array.iteri
        (fun i instr ->
          match instr with
          | Instr.Jump_if _ | Instr.Jump_ifz _ ->
              Alcotest.(check bool)
                (Printf.sprintf "%s pc %d: reconvergence pc in range"
                   spec.Workloads.Spec.name i)
                true
                (table.(i) = sentinel || (table.(i) > i && table.(i) <= len))
          | _ ->
              Alcotest.(check int)
                (Printf.sprintf "%s pc %d: sentinel" spec.Workloads.Spec.name i)
                sentinel table.(i))
        prog.Program.body)
    (Workloads.Registry.all @ Workloads.Registry.divergent)

(* A bar.sync under a divergent arm: real SIMT hardware gives it no
   meaning (the lanes that branched around it never arrive). This model's
   barrier counts warps, not lanes, so the partially-masked warp still
   arrives with the rest of its CTA and the kernel terminates — pin that
   down, identically in both stepping modes. (The fuzz generator still
   keeps its divergent family barrier-free: warp-level arrival under a
   partial mask is a modelling choice, not a semantics the differential
   oracle should depend on.) *)
let test_divergent_barrier_terminates () =
  let prog =
    Builder.(
      assemble ~name:"divbar"
        [ mov 0 lane_id;
          and_ 1 (r 0) (imm 1);
          bz (r 1) "skip";
          bar;                       (* odd lanes' arm *)
          label "skip";
          add 2 tid lane_id;
          mul 2 (r 2) (imm 4);
          store ~ofs:0x10000000 Instr.Global (r 2) (r 0);
          exit_ ])
  in
  let ff = run_simt ~grid:1 ~threads:64 prog in
  let bf = run_simt ~grid:1 ~threads:64 ~fast_forward:false prog in
  Alcotest.(check bool) "warps actually split" true
    (ff.Stats.divergent_branches > 0);
  Alcotest.(check int) "same cycle count in both modes" ff.Stats.cycles
    bf.Stats.cycles;
  (match
     Checker.diff_lane_store_traces
       ~expected:(Stats.lane_store_traces ff)
       ~actual:(Stats.lane_store_traces bf)
   with
  | None -> ()
  | Some d -> Alcotest.failf "ff/bf lane traces differ: %s" d)

(* The fuzz oracle's mask-corrupt fault: a prefix that sends lane 1 to an
   appended exit before the first instruction must be visible in the
   lane-resolved traces (lane 1 stores nothing), while the clean trace
   equals itself. *)
let test_corrupt_mask_detected () =
  let r = lane_diamond.Program.n_regs and n = Program.length lane_diamond in
  let lane1_exits =
    Program.insert_before lane_diamond
      [ ( 0,
          [ Instr.Cmp (Instr.Eq, r, Instr.Special Instr.Lane_id, Instr.Imm 1);
            Instr.Jump_if (Instr.Reg r, n) ] );
        (n, [ Instr.Exit ]) ]
  in
  let clean = Stats.lane_store_traces (run_simt ~grid:1 ~threads:64 lane_diamond) in
  let corrupt =
    Stats.lane_store_traces (run_simt ~grid:1 ~threads:64 lane1_exits)
  in
  (match Checker.diff_lane_store_traces ~expected:clean ~actual:clean with
  | None -> ()
  | Some d -> Alcotest.failf "clean trace differs from itself: %s" d);
  (match Checker.diff_lane_store_traces ~expected:clean ~actual:corrupt with
  | None -> Alcotest.fail "corrupted lane 1 escaped the lane differ"
  | Some _ -> ());
  List.iter
    (fun ((_, _, l), stores) ->
      Alcotest.(check int)
        (Printf.sprintf "lane %d stores" l)
        (if l = 1 then 0 else 1)
        (List.length stores))
    corrupt;
  Alcotest.(check int) "every lane but lane 1 of each warp stored" (64 - 2)
    (List.length (List.filter (fun (_, stores) -> stores <> []) corrupt))

(* Collapsed and lane-resolved runs of the same program must agree on
   every result counter of [Stats.table] and on both store-trace
   granularities. *)
let check_collapsed_equal what collapsed resolved =
  Util.check_same_counters (what ^ ": collapsed vs resolved") collapsed
    resolved;
  (match
     Checker.diff_lane_store_traces
       ~expected:(Stats.lane_store_traces resolved)
       ~actual:(Stats.lane_store_traces collapsed)
   with
  | None -> ()
  | Some d -> Alcotest.failf "%s: lane traces differ: %s" what d);
  Util.check_same_traces (what ^ ": warp traces") (Util.traces resolved)
    (Util.traces collapsed)

(* Uniform work (including a store, which a collapsed warp records once
   per lane), then the first [%laneid] read and a divergent branch on it.
   The collapsed run expands each warp exactly once, at the read. *)
let late_expansion =
  Builder.(
    assemble ~name:"late_expansion"
      [ mov 0 ctaid;
        mul 1 (r 0) (imm 7);
        add 1 (r 1) tid;
        mul 2 (r 0) ntid;
        add 2 (r 2) tid;
        mul 2 (r 2) (imm 4);
        store ~ofs:0x20000000 Instr.Global (r 2) (r 1);
        mov 3 lane_id;
        and_ 4 (r 3) (imm 3);
        bnz (r 4) "skip";
        add 1 (r 1) (imm 1000);
        label "skip";
        add 1 (r 1) (r 3);
        add 5 (r 2) (r 3);
        store ~ofs:0x10000000 Instr.Global (r 5) (r 1);
        exit_ ])

let test_late_expansion () =
  List.iter
    (fun fast_forward ->
      let collapsed = run_simt ~grid:3 ~threads:64 ~fast_forward late_expansion in
      let resolved =
        run_simt ~grid:3 ~threads:64 ~fast_forward ~lane_resolved:true
          late_expansion
      in
      check_collapsed_equal "late expansion" collapsed resolved;
      Alcotest.(check bool) "the branch diverged" true
        (collapsed.Stats.divergent_branches > 0);
      Alcotest.(check int) "every warp expanded once" 6
        collapsed.Stats.lane_expansions;
      Alcotest.(check int) "lane-resolved warps never expand" 0
        resolved.Stats.lane_expansions)
    [ true; false ]

(* A RegMutex release before the first [%laneid] read poisons the
   collapsed warp's lane-0 segment; expansion must broadcast the poison
   into every lane, exactly as a lane-resolved warp poisons each lane. The
   program reads a released register on purpose (the checker would reject
   it) to make the poison observable. *)
let test_release_poison_before_expansion () =
  let prog =
    Builder.(
      assemble ~name:"poison_then_expand"
        [ mov 0 tid;
          acquire;
          mov 2 (imm 5);
          mov 3 (imm 6);
          add 1 (r 2) (r 3);
          release;
          add 0 (r 0) lane_id;
          mul 0 (r 0) (imm 4);
          store ~ofs:0x10000000 Instr.Global (r 0) (r 2);
          store ~ofs:0x20000000 Instr.Global (r 0) (r 1);
          exit_ ])
  in
  let policy = Gpu_sim.Policy.Srp { bs = 2; es = 2; verify = false } in
  let collapsed = run_simt ~policy ~grid:2 ~threads:64 prog in
  let resolved = run_simt ~policy ~grid:2 ~threads:64 ~lane_resolved:true prog in
  check_collapsed_equal "poison before expansion" collapsed resolved;
  Alcotest.(check int) "every warp expanded" 4 collapsed.Stats.lane_expansions;
  let poison = 0xDEAD_BEEF in
  let traces = Stats.lane_store_traces collapsed in
  Alcotest.(check int) "one trace per lane" (2 * 64) (List.length traces);
  List.iter
    (fun ((c, w, l), stores) ->
      Alcotest.(check (list int))
        (Printf.sprintf "cta %d warp %d lane %d" c w l)
        [ poison; 11 ]
        (List.map (fun (_, _, v) -> v) stores))
    traces

(* RFV peeks the next instruction's register demand before issue, so its
   scheduling depends on how a collapsed warp evaluates branches: a
   data-dependent (per-CTA) branch it evaluates uniformly, and a branch on
   [%laneid] itself, where the peek must already see the split the
   expansion will make — lane 0 takes it, the other lanes fall through
   into the high-pressure arm first. A register file of 24 warp registers
   keeps RFV starved, so a wrong peek moves the schedule. Four runs —
   collapsed or lane-resolved, fast-forward or brute force — must share
   one fingerprint. *)
let test_rfv_collapsed_fingerprints () =
  let prog =
    Builder.(
      assemble ~name:"rfv_branches"
        [ mov 0 ctaid;
          and_ 1 (r 0) (imm 1);
          bz (r 1) "even";
          mov 2 (imm 3);
          mad 5 (r 2) (r 2) (r 0);
          bra "join";
          label "even";
          mov 5 (imm 2);
          label "join";
          mov 2 (imm 1);
          mov 3 (imm 2);
          mov 4 (imm 3);
          bz lane_id "lane0";
          mad 6 (r 2) (r 3) (r 4);
          add 5 (r 5) (r 6);
          label "lane0";
          add 6 tid lane_id;
          mul 6 (r 6) (imm 4);
          store ~ofs:0x10000000 Instr.Global (r 6) (r 5);
          exit_ ])
  in
  let kernel =
    Gpu_sim.Kernel.make ~name:"rfv_branches" ~grid_ctas:8 ~cta_threads:128
      ~params:[||] prog
  in
  let arch = { Util.small_arch with Gpu_uarch.Arch_config.regfile_regs = 24 * 32 } in
  let simt = { Technique.default_options with Technique.simt = true } in
  let run ?lane_resolved fast_forward =
    Runner.execute ~options:simt ?lane_resolved ~fast_forward arch Technique.Rfv
      kernel
  in
  let collapsed = run true in
  let fp = Runner.fingerprint collapsed in
  List.iter
    (fun (what, r) -> Alcotest.(check string) what fp (Runner.fingerprint r))
    [ ("collapsed bf", run false);
      ("lane-resolved ff", run ~lane_resolved:true true);
      ("lane-resolved bf", run ~lane_resolved:true false) ];
  let stats = collapsed.Runner.stats in
  Alcotest.(check bool) "warps expanded at the %laneid branch" true
    (stats.Stats.lane_expansions > 0);
  Alcotest.(check bool) "the %laneid branch diverged" true
    (stats.Stats.divergent_branches > 0);
  Alcotest.(check bool) "RFV ran out of registers" true
    (Stats.stall_count stats Stats.Stall_regs > 0)

(* The divergent registry kernel really diverges: a valid spec whose
   baseline SIMT run splits warps and predicates lanes off. Every divergent
   cell, under every technique, gives the same fingerprint fast-forwarded
   and brute force: the golden file's cells never split a warp, so this is
   where the stepping modes meet the reconvergence stack. *)
let test_bfs_frontier_diverges () =
  let spec = Workloads.Registry.find "BFS-Frontier" in
  (match Workloads.Spec.validate spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "BFS-Frontier spec invalid: %s" e);
  let cfg = Experiments.Exp_config.quick in
  let simt = { Technique.default_options with Technique.simt = true } in
  let run ?(fast_forward = true) t spec =
    Runner.execute ~options:simt ~fast_forward
      (Experiments.Exp_config.eval_arch cfg spec)
      t
      (Experiments.Exp_config.kernel_of cfg spec)
  in
  let base = run Technique.Baseline spec in
  Alcotest.(check bool) "divergent branches" true
    (base.Runner.stats.Stats.divergent_branches > 0);
  Alcotest.(check bool) "lanes predicated off" true
    (base.Runner.stats.Stats.predicated_lane_cycles > 0);
  Alcotest.(check bool) "warps expanded" true
    (base.Runner.stats.Stats.lane_expansions > 0);
  List.iter
    (fun spec ->
      List.iter
        (fun t ->
          Alcotest.(check string)
            (Printf.sprintf "%s/%s: fast-forward = brute force"
               spec.Workloads.Spec.name (Technique.name t))
            (Runner.fingerprint (run ~fast_forward:false t spec))
            (Runner.fingerprint (run t spec)))
        Technique.all)
    Workloads.Registry.divergent

let test_laneid_roundtrip () =
  let prog = lane_diamond in
  Alcotest.check Util.program "parse (print p) = p" prog
    (Parser.parse ~name:prog.Program.name
       (Format.asprintf "%a" Program.pp prog));
  Alcotest.check Util.program "decode (encode p) = p" prog
    (Codec.decode_program ~name:prog.Program.name (Codec.encode_program prog))

let suite =
  [ Alcotest.test_case "lane-resolved diamond stores" `Quick test_lane_diamond;
    Alcotest.test_case "data-dependent loop trip counts" `Quick
      test_lane_loop_trips;
    Alcotest.test_case "uniform branches never split" `Quick
      test_uniform_branch_no_divergence;
    Alcotest.test_case "reconvergence table on the diamond" `Quick
      test_reconv_table_diamond;
    Alcotest.test_case "reconvergence table on the registry" `Quick
      test_reconv_table_workloads;
    Alcotest.test_case "divergent-arm barrier terminates" `Quick
      test_divergent_barrier_terminates;
    Alcotest.test_case "corrupt-mask fault is lane-visible" `Quick
      test_corrupt_mask_detected;
    Alcotest.test_case "late expansion matches lane-resolved" `Quick
      test_late_expansion;
    Alcotest.test_case "release poison broadcast at expansion" `Quick
      test_release_poison_before_expansion;
    Alcotest.test_case "RFV collapsed four-way fingerprints" `Quick
      test_rfv_collapsed_fingerprints;
    Alcotest.test_case "BFS-Frontier spec diverges" `Slow
      test_bfs_frontier_diverges;
    Alcotest.test_case "%laneid round-trips" `Quick test_laneid_roundtrip ]
