(* Equivalence of event-driven fast-forward with brute-force stepping.

   Cycle skipping (Gpu.run_config.fast_forward) must be invisible: every
   statistic, stall attribution, store trace and telemetry record must be
   bit-identical to stepping the clock one cycle at a time, across every
   register policy, scheduler kind and control-flow shape — including the
   acquire-stall- and barrier-heavy kernels whose wakeups are *not*
   time-driven and must never be skipped over. *)

open Gpu_sim
module B = Gpu_isa.Builder
module I = Gpu_isa.Instr
module Trace = Telemetry.Trace
module Technique = Regmutex.Technique
module Runner = Regmutex.Runner
module Engine = Experiments.Engine

(* --- kernels ----------------------------------------------------------- *)

(* Acquire- and barrier-heavy: SRP traffic and a barrier inside the loop,
   so warps spend most cycles in issue-dependent stalls (the ones with no
   wakeup bound). *)
let contended =
  B.(
    assemble ~name:"contended"
      ([ mul 0 ctaid ntid; add 0 (r 0) tid; mov 1 (imm 0) ]
      @ Workloads.Shape.counted_loop ~ctr:2 ~trips:(imm 3) ~name:"l"
          [ acquire;
            add 3 (r 0) (imm 1);
            add 4 (r 3) (r 1);
            add 1 (r 3) (r 4);
            release;
            bar ]
      @ [ store ~ofs:0x10000000 I.Global (r 0) (r 1); exit_ ]))

(* Memory-latency-bound: dependent global loads, long skippable waits. *)
let chase =
  B.(
    assemble ~name:"chase"
      ([ mul 0 ctaid ntid; add 0 (r 0) tid; mul 2 (r 0) (imm 8); mov 3 (imm 0) ]
      @ Workloads.Shape.counted_loop ~ctr:1 ~trips:(imm 4) ~name:"hop"
          [ load ~ofs:0 I.Global 3 (r 2); load ~ofs:1 I.Global 2 (r 3) ]
      @ [ store ~ofs:0x10000000 I.Global (r 0) (r 2); exit_ ]))

(* Compute/memory mix with a register bulge — exercises RFV's demand
   fluctuation and SRP's acquire window around a memory access. *)
let mixed =
  B.(
    assemble ~name:"mixed"
      ([ mul 0 ctaid ntid; add 0 (r 0) tid; mov 1 (imm 0); mul 2 (r 0) (imm 4) ]
      @ Workloads.Shape.counted_loop ~ctr:3 ~trips:(imm 2) ~name:"it"
          ([ load I.Global 4 (r 2) ]
          @ Workloads.Shape.bulge ~keep:[ 2 ] ~seed:4 ~acc:1 ~first:5 ~last:11
              ~hold:2 ()
          @ [ add 2 (r 2) (imm 4) ])
      @ [ bar; store ~ofs:0x10000000 I.Global (r 0) (r 1); exit_ ]))

let kernels =
  [ ("contended", contended, 64); ("chase", chase, 64); ("mixed", mixed, 64) ]

let techniques =
  [ Technique.Baseline; Technique.Regmutex; Technique.Regmutex_paired;
    Technique.Owf; Technique.Rfv ]

let schedulers =
  [ ("gto", Gpu_uarch.Arch_config.Gto); ("lrr", Gpu_uarch.Arch_config.Lrr);
    ("two-level", Gpu_uarch.Arch_config.Two_level 4) ]

(* --- equality of everything a run can observe -------------------------- *)

let all_reasons =
  Stats.
    [ (Stall_deps, "deps"); (Stall_mem_slot, "mem-slot");
      (Stall_acquire, "acquire"); (Stall_regs, "rfv-regs");
      (Stall_barrier, "barrier"); (Stall_empty, "empty") ]

let check_same_stats msg (a : Stats.t) (b : Stats.t) =
  let ck name va vb = Alcotest.(check int) (msg ^ ": " ^ name) va vb in
  ck "cycles" a.Stats.cycles b.Stats.cycles;
  ck "instructions" a.Stats.instructions b.Stats.instructions;
  ck "resident_warp_cycles" a.Stats.resident_warp_cycles b.Stats.resident_warp_cycles;
  ck "warp_capacity_cycles" a.Stats.warp_capacity_cycles b.Stats.warp_capacity_cycles;
  ck "acquire_execs" a.Stats.acquire_execs b.Stats.acquire_execs;
  ck "acquire_first_try" a.Stats.acquire_first_try b.Stats.acquire_first_try;
  ck "acquire_stall_cycles" a.Stats.acquire_stall_cycles b.Stats.acquire_stall_cycles;
  ck "release_execs" a.Stats.release_execs b.Stats.release_execs;
  ck "shared_oob" a.Stats.shared_oob b.Stats.shared_oob;
  ck "ctas_retired" a.Stats.ctas_retired b.Stats.ctas_retired;
  Alcotest.(check bool) (msg ^ ": timed_out") a.Stats.timed_out b.Stats.timed_out;
  List.iter
    (fun (reason, name) ->
      ck ("stall[" ^ name ^ "]") (Stats.stall_count a reason)
        (Stats.stall_count b reason))
    all_reasons;
  Alcotest.(check (list int)) (msg ^ ": pc_trace") a.Stats.pc_trace b.Stats.pc_trace;
  Util.check_same_traces msg (Util.traces a) (Util.traces b);
  Alcotest.(check bool) (msg ^ ": warp instruction counts") true
    (Stats.warp_instruction_counts a = Stats.warp_instruction_counts b)

(* The sink's records without the fast-forward jump spans, which the
   GPU model pushes on its own track in one stepping mode only. *)
let sim_records sink =
  List.filter (fun r -> r.Trace.name <> "fast-forward") (Util.records sink)

let check_same_records msg a b =
  Alcotest.(check int) (msg ^ ": record count") (List.length a) (List.length b);
  List.iteri
    (fun i ((ra : Trace.record), (rb : Trace.record)) ->
      if ra <> rb then
        Alcotest.failf "%s: record %d diverges: %s@%d vs %s@%d" msg i ra.name
          ra.ts rb.name rb.ts)
    (List.combine a b)

(* --- the matrix -------------------------------------------------------- *)

let run_mode ~arch ~technique ~kernel ~fast_forward =
  let prepared = Technique.prepare arch technique kernel in
  let sink = Telemetry.Sink.create () in
  let config =
    { (Gpu.default_config arch prepared.Technique.policy) with
      Gpu.record_stores = true;
      trace_warp0 = true;
      telemetry = Some sink;
      max_cycles = 2_000_000;
      fast_forward }
  in
  let stats = Gpu.run config prepared.Technique.kernel in
  (stats, sim_records sink)

let check_cell ~arch ~technique ~kernel msg =
  let brute_stats, brute_records =
    run_mode ~arch ~technique ~kernel ~fast_forward:false
  in
  let fast_stats, fast_records =
    run_mode ~arch ~technique ~kernel ~fast_forward:true
  in
  check_same_stats msg brute_stats fast_stats;
  check_same_records msg brute_records fast_records

let test_matrix () =
  List.iter
    (fun (sched_name, scheduler) ->
      let arch = { Util.small_arch with Gpu_uarch.Arch_config.scheduler } in
      List.iter
        (fun technique ->
          List.iter
            (fun (kname, prog, threads) ->
              let kernel =
                Kernel.make ~name:kname ~grid_ctas:3 ~cta_threads:threads prog
              in
              check_cell ~arch ~technique ~kernel
                (Printf.sprintf "%s/%s/%s" sched_name
                   (Technique.name technique) kname))
            kernels)
        techniques)
    schedulers

(* Multi-SM: CTA dispatch eligibility must keep clamping the jump when
   several SMs compete for the remaining grid. *)
let test_multi_sm () =
  let arch = { Util.small_arch with Gpu_uarch.Arch_config.n_sms = 3 } in
  List.iter
    (fun technique ->
      let kernel = Kernel.make ~name:"chase" ~grid_ctas:7 ~cta_threads:64 chase in
      check_cell ~arch ~technique ~kernel
        ("3sm/" ^ Technique.name technique ^ "/chase"))
    techniques

(* The latency-bound stress workload on the evaluation slice — the cell
   where fast-forward actually skips most of the run. *)
let test_pchase_runner () =
  let spec = Workloads.Registry.find "PChase" in
  let kernel = (Workloads.Spec.with_grid spec 4).Workloads.Spec.kernel in
  let arch = Experiments.Exp_config.default.Experiments.Exp_config.arch in
  List.iter
    (fun technique ->
      let brute = Runner.execute ~fast_forward:false arch technique kernel in
      let fast = Runner.execute ~fast_forward:true arch technique kernel in
      Alcotest.(check string)
        ("pchase/" ^ Technique.name technique ^ ": fingerprint")
        (Runner.fingerprint brute) (Runner.fingerprint fast);
      check_same_stats
        ("pchase/" ^ Technique.name technique)
        brute.Runner.stats fast.Runner.stats)
    techniques

(* PChase is a well-formed spec even though it sits outside Table I. *)
let test_pchase_spec () =
  let spec = Workloads.Registry.find "PChase" in
  (match Workloads.Spec.validate spec with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "latency_bound contains PChase" true
    (List.memq spec Workloads.Registry.latency_bound)

(* --- engine: cache keys and results are mode-independent --------------- *)

let test_engine_invariance () =
  let spec = Workloads.Registry.find "DWT2D" in
  let cfg = { Experiments.Exp_config.quick with grid_scale = 0.1 } in
  let arch = cfg.Experiments.Exp_config.arch in
  let in_mode ff =
    Engine.clear ();
    Engine.set_cache_dir None;
    Engine.set_fast_forward ff;
    let key = Engine.key cfg ~arch Technique.Regmutex spec in
    let run = Engine.run cfg ~arch Technique.Regmutex spec in
    Engine.set_fast_forward true;
    (key, Runner.fingerprint run)
  in
  let key_ff, fp_ff = in_mode true in
  let key_bf, fp_bf = in_mode false in
  Alcotest.(check string) "cache key mode-independent" key_bf key_ff;
  Alcotest.(check string) "cached result mode-independent" fp_bf fp_ff

(* --- observe contract under cycle skipping ----------------------------- *)

let observed_cycles ~fast_forward ~observe_every kernel =
  let prepared = Technique.prepare Util.small_arch Technique.Baseline kernel in
  let config =
    { (Gpu.default_config Util.small_arch prepared.Technique.policy) with
      Gpu.fast_forward = fast_forward }
  in
  let seen = ref [] in
  let stats =
    Gpu.run ~observe:(fun ~cycle _ -> seen := cycle :: !seen) ~observe_every
      config prepared.Technique.kernel
  in
  (List.rev !seen, stats)

let test_observe_grid () =
  let kernel = Kernel.make ~name:"chase" ~grid_ctas:2 ~cta_threads:64 chase in
  let fast, fast_stats = observed_cycles ~fast_forward:true ~observe_every:7 kernel in
  let brute, brute_stats =
    observed_cycles ~fast_forward:false ~observe_every:7 kernel
  in
  check_same_stats "observe" brute_stats fast_stats;
  Alcotest.(check (list int)) "same observation cycles" brute fast;
  (* The sampling grid bounds every jump, so the observed cycles are
     exactly the multiples of the interval over the whole run — no sample
     is skipped over even when the machine sleeps across it. *)
  let expected =
    List.init fast_stats.Stats.cycles (fun c -> c)
    |> List.filter (fun c -> c mod 7 = 0)
  in
  Alcotest.(check (list int)) "every grid point sampled" expected fast;
  (* An every-cycle observer degenerates to brute-force visiting. *)
  let dense, dense_stats = observed_cycles ~fast_forward:true ~observe_every:1 kernel in
  Alcotest.(check int) "dense observer sees every cycle"
    dense_stats.Stats.cycles (List.length dense)

let test_observe_every_validated () =
  let kernel = Kernel.make ~name:"chase" ~grid_ctas:1 ~cta_threads:32 chase in
  let prepared = Technique.prepare Util.small_arch Technique.Baseline kernel in
  let config = Gpu.default_config Util.small_arch prepared.Technique.policy in
  Alcotest.check_raises "observe_every = 0 rejected"
    (Invalid_argument "Gpu.run: observe_every must be >= 1") (fun () ->
      ignore
        (Gpu.run ~observe:(fun ~cycle:_ _ -> ()) ~observe_every:0 config
           prepared.Technique.kernel))

let suite =
  [ Alcotest.test_case "policy x scheduler x kernel matrix" `Slow test_matrix;
    Alcotest.test_case "multi-SM dispatch clamping" `Quick test_multi_sm;
    Alcotest.test_case "PChase under Runner, all techniques" `Slow
      test_pchase_runner;
    Alcotest.test_case "PChase spec is well-formed" `Quick test_pchase_spec;
    Alcotest.test_case "engine cache keys mode-independent" `Quick
      test_engine_invariance;
    Alcotest.test_case "observe sampling grid preserved" `Quick test_observe_grid;
    Alcotest.test_case "observe_every validated" `Quick
      test_observe_every_validated ]
