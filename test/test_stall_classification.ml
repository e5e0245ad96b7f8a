(* Regression tests for idle-slot stall classification: classifying why a
   scheduler slot is idle is an observation, not an issue attempt, so it
   must never mark warps acquire-stalled or push [acquire-stall] records
   into the telemetry sink — no matter how many idle schedulers probe the
   same warp. *)

open Gpu_sim
module B = Gpu_isa.Builder
module Trace = Telemetry.Trace

(* One CTA slot, zero SRP sections: the kernel's first acquire can never
   be granted, so classification always lands on the acquire stall. *)
let starved_sm () =
  let arch =
    { Util.small_arch with
      Gpu_uarch.Arch_config.regfile_regs = 256;
      max_ctas = 1;
      max_warps = 1;
      max_threads = 32;
      reg_alloc_gran = 1 }
  in
  (* The mov after the acquire never executes (the acquire is never
     granted); it is there so the program references a register, which
     [Kernel.make] requires. *)
  let prog = B.(assemble ~name:"acq" [ acquire; mov 0 (imm 0); release; exit_ ]) in
  let kernel = Kernel.make ~name:"acq" ~grid_ctas:1 ~cta_threads:32 prog in
  let policy = Policy.Srp { bs = 8; es = 4; verify = false } in
  let stats = Stats.create () in
  let sink = Telemetry.Sink.create () in
  let sm =
    Sm.create ~telemetry:sink (Sm.tables arch ~policy ~kernel) ~sm_id:0
      ~memory:(Memory.create ())
      ~mem_sys:(Mem_system.create arch ~n_sms:1)
      ~stats ~record_stores:false ~trace_warp0:false
  in
  (sm, stats, sink)

let test_classification_is_pure () =
  let sm, stats, sink = starved_sm () in
  Alcotest.(check int) "no sections" 0 (Sm.srp_sections sm);
  Alcotest.(check bool) "CTA launched" true
    (Sm.try_launch sm ~global_cta:0 ~cycle:0);
  let baseline = Trace.recorded sink.Telemetry.Sink.trace in
  for cycle = 0 to 99 do
    match Sm.classify_idle sm ~cycle with
    | Stats.Stall_acquire -> ()
    | _ -> Alcotest.fail "expected an acquire stall classification"
  done;
  Alcotest.(check int) "no records pushed by probing" baseline
    (Trace.recorded sink.Telemetry.Sink.trace);
  Alcotest.(check int) "no acquires recorded" 0 stats.Stats.acquire_execs;
  Alcotest.(check int) "no first-tries recorded" 0 stats.Stats.acquire_first_try;
  Alcotest.(check int) "no stall counters bumped" 0
    (Stats.stall_count stats Stats.Stall_acquire)

(* A contended SRP configuration: 2 CTAs x 2 warps fight over a single
   section, so real acquire stalls do happen. 448 registers = 2 CTAs x
   (3 regs x 64 threads) + one |Es|=2 section of 64. *)
let contended_arch =
  { Util.small_arch with
    Gpu_uarch.Arch_config.regfile_regs = 448;
    reg_alloc_gran = 1 }

let contended_run ?observe () =
  let sink = Telemetry.Sink.create () in
  let kernel =
    Kernel.make ~name:"ev" ~grid_ctas:4 ~cta_threads:64 Test_events.srp_kernel
  in
  let config =
    { (Gpu.default_config contended_arch (Policy.Srp { bs = 3; es = 2; verify = true }))
      with Gpu.telemetry = Some sink }
  in
  let stats = Gpu.run ?observe config kernel in
  (stats, Util.records sink)

let stall_records rs = Util.named "acquire-stall" rs

(* The headline regression: acquire statistics and the stall-event stream
   must be identical whether or not idle schedulers classify every cycle.
   The observer plays the part of arbitrarily many extra idle schedulers
   probing mid-run. *)
let test_stats_independent_of_probing () =
  let plain_stats, plain_records = contended_run () in
  let probed_stats, probed_records =
    contended_run
      ~observe:(fun ~cycle sms ->
        Array.iter
          (fun sm ->
            for _ = 1 to 3 do
              ignore (Sm.classify_idle sm ~cycle)
            done)
          sms)
      ()
  in
  (* The scenario really contends: some acquire waited. *)
  Alcotest.(check bool) "stalls happened" true
    (plain_stats.Stats.acquire_first_try < plain_stats.Stats.acquire_execs);
  Alcotest.(check bool) "stall records pushed" true
    (stall_records plain_records <> []);
  Alcotest.(check int) "same cycles" plain_stats.Stats.cycles
    probed_stats.Stats.cycles;
  Alcotest.(check int) "same acquires" plain_stats.Stats.acquire_execs
    probed_stats.Stats.acquire_execs;
  Alcotest.(check int) "same first-tries" plain_stats.Stats.acquire_first_try
    probed_stats.Stats.acquire_first_try;
  Alcotest.(check bool) "same stall records" true
    (stall_records plain_records = stall_records probed_records)

(* One [acquire-stall] record per stall episode: on a warp slot's track,
   a second stall may only follow a hold — the stalled acquire was
   granted, and the hold span is pushed at its release, before the warp
   can reach its next acquire. *)
let test_one_event_per_episode () =
  let _, rs = contended_run () in
  let stalled = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let track = (r.Trace.pid, r.Trace.tid) in
      match r.Trace.name with
      | "acquire-stall" ->
          if Hashtbl.mem stalled track then
            Alcotest.failf "slot %d: repeated stall record without a grant"
              r.Trace.tid;
          Hashtbl.replace stalled track r.Trace.ts
      | "srp-hold" -> (
          match Hashtbl.find_opt stalled track with
          | Some since ->
              Alcotest.(check bool) "the grant ends the episode" true
                (r.Trace.ts >= since);
              Hashtbl.remove stalled track
          | None -> ())
      | _ -> ())
    rs

let suite =
  [ Alcotest.test_case "classification is pure" `Quick test_classification_is_pure;
    Alcotest.test_case "stats independent of idle probing" `Quick
      test_stats_independent_of_probing;
    Alcotest.test_case "one stall event per episode" `Quick
      test_one_event_per_episode ]
