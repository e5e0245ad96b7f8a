(* Policy enforcement inside the SM: SRP acquire/stall, dynamic
   verification, paired pairs, OWF one-time acquire, RFV register
   starvation. *)

open Gpu_sim
module B = Gpu_isa.Builder
module I = Gpu_isa.Instr

(* A well-formed RegMutex kernel: base regs r0..r2, extended r3..r4. *)
let srp_kernel =
  B.(
    assemble ~name:"srp"
      ([ mul 0 ctaid ntid;
         add 0 (r 0) tid;
         mov 1 (imm 0) ]
      @ Workloads.Shape.counted_loop ~ctr:2 ~trips:(imm 3) ~name:"l"
          [ acquire;
            add 3 (r 0) (imm 1);
            add 4 (r 3) (r 1);
            add 1 (r 3) (r 4);
            release ]
      @ [ store ~ofs:0x10000000 I.Global (r 0) (r 1); exit_ ]))

let test_srp_runs_and_counts () =
  let stats =
    Util.run_with ~grid:2 ~threads:64
      (Policy.Srp { bs = 3; es = 2; verify = true })
      srp_kernel
  in
  Alcotest.(check bool) "completed" false stats.Stats.timed_out;
  (* 4 warps x 3 iterations. *)
  Alcotest.(check int) "acquires executed" 12 stats.Stats.acquire_execs;
  Alcotest.(check int) "releases executed" 12 stats.Stats.release_execs

let test_srp_verification_failure () =
  (* Extended access without acquire must trip dynamic verification. *)
  let bad =
    B.(
      assemble ~name:"bad"
        [ mov 0 (imm 1); add 3 (r 0) (imm 1);
          store ~ofs:0x10000000 I.Global (r 0) (r 3); exit_ ])
  in
  Alcotest.(check bool) "verification failure raised" true
    (try
       ignore
         (Util.run_with ~grid:1 ~threads:32
            (Policy.Srp { bs = 3; es = 2; verify = true })
            bad);
       false
     with Sm.Verification_failure _ -> true)

let test_srp_out_of_range () =
  let bad =
    B.(
      assemble ~name:"bad2"
        [ acquire; mov 9 (imm 1); store ~ofs:0x10000000 I.Global (imm 0) (r 9);
          release; exit_ ])
  in
  Alcotest.(check bool) "out-of-range access raises" true
    (try
       ignore
         (Util.run_with ~grid:1 ~threads:32
            (Policy.Srp { bs = 3; es = 2; verify = true })
            bad);
       false
     with Sm.Verification_failure _ -> true)

let test_srp_contention_counted () =
  (* One section for many warps with long-held sets: stalls must appear and
     every warp must still finish. The section count is forced by an SM
     whose register file leaves room for exactly one extended set:
     6 warps x 3 base + 1 x 2 ext = 20 packs. *)
  let arch =
    { Util.small_arch with
      Gpu_uarch.Arch_config.regfile_regs = 20 * 32;
      max_warps = 6;
      max_threads = 192;
      max_ctas = 6 }
  in
  let hold_kernel =
    B.(
      assemble ~name:"hold"
        ([ mul 0 ctaid ntid; add 0 (r 0) tid; mov 1 (imm 0) ]
        @ Workloads.Shape.counted_loop ~ctr:2 ~trips:(imm 2) ~name:"l"
            [ acquire;
              add 3 (r 0) (imm 1);
              mul 4 (r 3) (r 3);
              mul 4 (r 4) (r 3);
              mul 4 (r 4) (r 3);
              add 1 (r 4) (r 1);
              release ]
        @ [ store ~ofs:0x10000000 I.Global (r 0) (r 1); exit_ ]))
  in
  let kernel = Kernel.make ~name:"hold" ~grid_ctas:6 ~cta_threads:32 hold_kernel in
  let config =
    { (Gpu.default_config arch (Policy.Srp { bs = 3; es = 2; verify = true })) with
      Gpu.record_stores = true }
  in
  Alcotest.(check int) "exactly one section" 1 (Gpu.srp_sections_of config kernel);
  let stats = Gpu.run config kernel in
  Alcotest.(check bool) "finished" false stats.Stats.timed_out;
  Alcotest.(check int) "all acquires eventually succeed" 12 stats.Stats.acquire_execs;
  Alcotest.(check bool) "some acquires had to wait" true
    (stats.Stats.acquire_first_try < stats.Stats.acquire_execs)

let test_paired_policy () =
  let stats =
    Util.run_with ~grid:2 ~threads:64
      (Policy.Srp_paired { bs = 3; es = 2; verify = true })
      srp_kernel
  in
  Alcotest.(check bool) "completed" false stats.Stats.timed_out;
  Alcotest.(check int) "acquires" 12 stats.Stats.acquire_execs

let test_paired_odd_warps_rejected () =
  let kernel = Kernel.make ~name:"odd" ~grid_ctas:1 ~cta_threads:96 srp_kernel in
  Alcotest.(check bool) "odd warps/CTA rejected" true
    (try
       ignore
         (Gpu.run
            (Gpu.default_config Util.small_arch
               (Policy.Srp_paired { bs = 3; es = 2; verify = true }))
            kernel);
       false
     with Invalid_argument _ -> true)

(* OWF: the plain kernel (no primitives); hardware traps accesses >= bs. *)
let owf_kernel =
  B.(
    assemble ~name:"owf"
      ([ mul 0 ctaid ntid; add 0 (r 0) tid; mov 1 (imm 0) ]
      @ Workloads.Shape.counted_loop ~ctr:2 ~trips:(imm 3) ~name:"l"
          [ add 3 (r 0) (imm 1); add 4 (r 3) (r 1); add 1 (r 3) (r 4) ]
      @ [ store ~ofs:0x10000000 I.Global (r 0) (r 1); exit_ ]))

let test_owf_policy () =
  let stats =
    Util.run_with ~grid:2 ~threads:64 (Policy.Owf { bs = 3; es = 2 }) owf_kernel
  in
  Alcotest.(check bool) "completed" false stats.Stats.timed_out;
  (* One silent acquire per warp (ownership kept until exit). *)
  Alcotest.(check int) "one acquire per warp" 4 stats.Stats.acquire_execs;
  Alcotest.(check int) "never released in-kernel" 0 stats.Stats.release_execs;
  (* The behaviour matches the baseline exactly. *)
  let baseline = Util.run_with ~grid:2 ~threads:64 (Util.static_policy owf_kernel) owf_kernel in
  Util.check_same_traces "owf behaviour" (Util.traces baseline) (Util.traces stats)

let test_rfv_policy () =
  let prog = owf_kernel in
  let liveness = Gpu_analysis.Liveness.analyze prog in
  let live = Gpu_analysis.Liveness.profile liveness in
  let stats =
    Util.run_with ~grid:2 ~threads:64
      (Policy.Rfv { live; max_live = Gpu_analysis.Liveness.max_pressure liveness })
      prog
  in
  Alcotest.(check bool) "completed" false stats.Stats.timed_out;
  let baseline = Util.run_with ~grid:2 ~threads:64 (Util.static_policy prog) prog in
  Util.check_same_traces "rfv behaviour" (Util.traces baseline) (Util.traces stats)

let test_rfv_starved_still_completes () =
  (* A register file with room for very few live registers forces stalls;
     the oldest-ready override guarantees forward progress. *)
  let arch =
    { Util.small_arch with
      Gpu_uarch.Arch_config.regfile_regs = 8 * 32;
      max_warps = 4;
      max_threads = 128;
      max_ctas = 2 }
  in
  let prog = owf_kernel in
  let live = Gpu_analysis.Liveness.profile (Gpu_analysis.Liveness.analyze prog) in
  let stats =
    Util.run_with ~arch ~grid:2 ~threads:64 (Policy.Rfv { live; max_live = 5 }) prog
  in
  Alcotest.(check bool) "completed under starvation" false stats.Stats.timed_out;
  Alcotest.(check bool) "register stalls recorded" true
    (Stats.stall_count stats Stats.Stall_regs > 0)

let test_rfv_admits_beyond_static_limit () =
  (* RFV ignores static register demand at admission. *)
  let kernel = Kernel.make ~name:"t" ~grid_ctas:1 ~cta_threads:256 owf_kernel in
  let arch = Gpu_uarch.Arch_config.gtx480 in
  let live = Array.make (Gpu_isa.Program.length owf_kernel) 1 in
  let static_cfg = Gpu.default_config arch (Policy.Static { regs_per_thread = 60 }) in
  let rfv_cfg = Gpu.default_config arch (Policy.Rfv { live; max_live = 5 }) in
  Alcotest.(check int) "static limited" (2 * 8) (Gpu.theoretical_warps static_cfg kernel);
  Alcotest.(check int) "rfv thread-limited" 48 (Gpu.theoretical_warps rfv_cfg kernel)

(* --- occupancy queries ---------------------------------------------- *)

(* [Gpu.theoretical_warps] and [Gpu.srp_sections_of] answer from the SM's
   capacity rules without building one; they must agree with what an SM
   built by [Sm.create] reports, for every registry kernel under every
   technique's policy on its quick evaluation arch. *)
let built_sm arch policy kernel =
  Sm.create (Sm.tables arch ~policy ~kernel) ~sm_id:0 ~memory:(Memory.create ())
    ~mem_sys:(Mem_system.create arch ~n_sms:1)
    ~stats:(Stats.create ()) ~record_stores:false ~trace_warp0:false

let test_occupancy_queries_match_sm () =
  let cfg = Experiments.Exp_config.quick in
  List.iter
    (fun spec ->
      let arch = Experiments.Exp_config.eval_arch cfg spec in
      let kernel = Experiments.Exp_config.kernel_of cfg spec in
      List.iter
        (fun technique ->
          let prepared = Regmutex.Technique.prepare arch technique kernel in
          let policy = prepared.Regmutex.Technique.policy in
          let kernel = prepared.Regmutex.Technique.kernel in
          let config = Gpu.default_config arch policy in
          let sm = built_sm arch policy kernel in
          let label what =
            Printf.sprintf "%s/%s %s" spec.Workloads.Spec.name
              (Regmutex.Technique.name technique) what
          in
          Alcotest.(check int) (label "theoretical warps")
            (Sm.cta_capacity sm * Kernel.warps_per_cta arch kernel)
            (Gpu.theoretical_warps config kernel);
          Alcotest.(check int) (label "SRP sections") (Sm.srp_sections sm)
            (Gpu.srp_sections_of config kernel))
        Regmutex.Technique.all)
    Workloads.Registry.all

let test_occupancy_queries_reject_odd_warps () =
  let kernel = Kernel.make ~name:"odd" ~grid_ctas:1 ~cta_threads:96 srp_kernel in
  let raises label f =
    Alcotest.(check bool) label true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  List.iter
    (fun (name, policy) ->
      let config = Gpu.default_config Util.small_arch policy in
      raises (name ^ ": Sm.create") (fun () ->
          built_sm Util.small_arch policy kernel);
      raises (name ^ ": theoretical_warps") (fun () ->
          Gpu.theoretical_warps config kernel);
      raises (name ^ ": srp_sections_of") (fun () ->
          Gpu.srp_sections_of config kernel))
    [ ("paired", Policy.Srp_paired { bs = 3; es = 2; verify = true });
      ("OWF", Policy.Owf { bs = 3; es = 2 }) ]

let suite =
  [ Alcotest.test_case "SRP: runs and counts" `Quick test_srp_runs_and_counts;
    Alcotest.test_case "SRP: verification failure" `Quick test_srp_verification_failure;
    Alcotest.test_case "SRP: out-of-range access" `Quick test_srp_out_of_range;
    Alcotest.test_case "SRP: contention" `Quick test_srp_contention_counted;
    Alcotest.test_case "paired: runs" `Quick test_paired_policy;
    Alcotest.test_case "paired: odd warps rejected" `Quick test_paired_odd_warps_rejected;
    Alcotest.test_case "OWF: one-time acquire" `Quick test_owf_policy;
    Alcotest.test_case "RFV: matches baseline" `Quick test_rfv_policy;
    Alcotest.test_case "RFV: starvation progress" `Quick test_rfv_starved_still_completes;
    Alcotest.test_case "RFV: admission beyond static limit" `Quick
      test_rfv_admits_beyond_static_limit;
    Alcotest.test_case "occupancy queries match a built SM" `Quick
      test_occupancy_queries_match_sm;
    Alcotest.test_case "occupancy queries reject odd warps" `Quick
      test_occupancy_queries_reject_odd_warps ]
