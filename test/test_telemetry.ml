(* The telemetry subsystem: trace-ring wraparound and growth, Chrome
   trace-event export against the schema validator, and the zero-overhead
   contract — attaching a trace must not perturb a single statistic, in
   either stepping mode, and the record stream itself must be
   bit-identical under fast-forward and brute force. *)

module Trace = Telemetry.Trace
module Profile = Telemetry.Profile
module Json_check = Telemetry.Json_check
module Gpu = Gpu_sim.Gpu
module Kernel = Gpu_sim.Kernel
module Technique = Regmutex.Technique

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- trace ring --------------------------------------------------------- *)

let push_span tr ~ts =
  let name = Trace.intern tr "s" in
  Trace.span tr ~ts ~dur:1 ~pid:0 ~tid:0 ~name ~arg:Trace.no_arg

let timestamps tr =
  let acc = ref [] in
  Trace.iter tr (fun r -> acc := r.Trace.ts :: !acc);
  List.rev !acc

let test_ring_wraparound () =
  let tr = Trace.create ~capacity:4 () in
  for ts = 0 to 5 do
    push_span tr ~ts
  done;
  Alcotest.(check int) "length capped" 4 (Trace.length tr);
  Alcotest.(check int) "dropped oldest" 2 (Trace.dropped tr);
  Alcotest.(check int) "recorded total" 6 (Trace.recorded tr);
  Alcotest.(check (list int)) "retained window is newest, oldest-first"
    [ 2; 3; 4; 5 ] (timestamps tr)

let test_ring_growth () =
  (* Crosses the initial allocation on its way to a capacity it never
     fills: growth must preserve order and drop nothing. *)
  let n = 10_000 in
  let tr = Trace.create ~capacity:100_000 () in
  for ts = 0 to n - 1 do
    push_span tr ~ts
  done;
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped tr);
  Alcotest.(check int) "all retained" n (Trace.length tr);
  Alcotest.(check (list int)) "order preserved across growth"
    (List.init n (fun i -> i))
    (timestamps tr)

(* --- Chrome export and schema validator --------------------------------- *)

let test_export_schema () =
  let tr = Trace.create ~capacity:16 () in
  Trace.set_process_name tr ~pid:0 "SM 0";
  Trace.set_thread_name tr ~pid:0 ~tid:0 "warp slot 0";
  let w = Trace.intern tr "warp" and c = Trace.intern tr "srp-in-use" in
  Trace.span tr ~ts:0 ~dur:10 ~pid:0 ~tid:0 ~name:w ~arg:7;
  Trace.instant tr ~ts:3 ~pid:0 ~tid:0 ~name:w ~arg:Trace.no_arg;
  Trace.counter tr ~ts:5 ~pid:0 ~name:c ~value:2;
  let out = Format.asprintf "%a" Trace.export_chrome tr in
  match Json_check.validate_chrome_trace out with
  | Ok n -> Alcotest.(check int) "3 records + 2 metadata events" 5 n
  | Error msg -> Alcotest.failf "export failed schema check: %s" msg

let test_validator_rejects () =
  let bad = Alcotest.(check bool) "rejected" true in
  bad (Result.is_error (Json_check.validate_chrome_trace "[1, 2]"));
  bad (Result.is_error (Json_check.validate_chrome_trace "{\"x\": 1}"));
  bad
    (Result.is_error
       (Json_check.validate_chrome_trace
          "{\"traceEvents\": [{\"name\": \"x\", \"pid\": 0}]}"));
  bad
    (Result.is_error
       (Json_check.validate_chrome_trace
          "{\"traceEvents\": [{\"ph\": \"Z\", \"name\": \"x\", \"pid\": 0, \
           \"tid\": 0, \"ts\": 1}]}"));
  (* An "X" span without "dur" is malformed. *)
  bad
    (Result.is_error
       (Json_check.validate_chrome_trace
          "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"x\", \"pid\": 0, \
           \"tid\": 0, \"ts\": 1}]}"));
  Alcotest.(check bool) "minimal valid trace accepted" true
    (Result.is_ok
       (Json_check.validate_chrome_trace
          "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"x\", \"pid\": 0, \
           \"tid\": 0, \"ts\": 1, \"dur\": 2}]}"))

(* --- host-side profiling ------------------------------------------------ *)

let test_profile_scopes () =
  let p = Profile.phase "test.scope" in
  Profile.reset ();
  Profile.set_enabled false;
  Alcotest.(check int) "disabled timing returns value" 42
    (Profile.time p (fun () -> 42));
  Alcotest.(check bool) "disabled scope unreported" true
    (List.for_all (fun (n, _, _) -> n <> "test.scope") (Profile.report ()));
  Profile.set_enabled true;
  ignore (Profile.time p (fun () -> Unix.sleepf 0.001));
  Profile.set_enabled false;
  match List.find_opt (fun (n, _, _) -> n = "test.scope") (Profile.report ()) with
  | None -> Alcotest.fail "scope missing from report"
  | Some (_, ns, calls) ->
      Alcotest.(check int) "one call" 1 calls;
      Alcotest.(check bool) "time accrued" true (ns > 0)

(* --- zero-overhead contract: trace off vs on ---------------------------- *)

let run_mode ~arch ~technique ~kernel ~fast_forward ~telemetry =
  let prepared = Technique.prepare arch technique kernel in
  let config =
    { (Gpu.default_config arch prepared.Technique.policy) with
      Gpu.record_stores = true;
      trace_warp0 = true;
      max_cycles = 2_000_000;
      fast_forward;
      telemetry }
  in
  Gpu.run config prepared.Technique.kernel

(* The policy x scheduler matrix from the fast-forward suite, each cell
   simulated with and without a trace: stats must be bit-identical — the
   probe only observes. *)
let test_sink_off_on_identity () =
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
              let msg =
                Printf.sprintf "%s/%s/%s" sched_name (Technique.name technique)
                  kname
              in
              let off_stats =
                run_mode ~arch ~technique ~kernel ~fast_forward:true
                  ~telemetry:None
              in
              let on_stats =
                run_mode ~arch ~technique ~kernel ~fast_forward:true
                  ~telemetry:(Some (Trace.create ()))
              in
              Test_fast_forward.check_same_stats msg off_stats on_stats)
            Test_fast_forward.kernels)
        Test_fast_forward.techniques)
    Test_fast_forward.schedulers

(* The record stream itself is mode-independent: every probe record is
   anchored at an issue, so fast-forward and brute force emit identical
   streams — except the fast-forward jump spans on the driver's own
   track, which exist only in one mode and are filtered here. *)
let test_trace_mode_identity () =
  List.iter
    (fun technique ->
      let kernel =
        Kernel.make ~name:"chase" ~grid_ctas:3 ~cta_threads:64
          Test_fast_forward.chase
      in
      let with_mode fast_forward =
        let trace = Trace.create () in
        let _ =
          run_mode ~arch:Util.small_arch ~technique ~kernel ~fast_forward
            ~telemetry:(Some trace)
        in
        Util.records trace
      in
      let fast = with_mode true and brute = with_mode false in
      let jumps, fast_rest =
        List.partition (fun r -> r.Trace.name = "fast-forward") fast
      in
      Alcotest.(check bool)
        (Technique.name technique ^ ": fast-forward jumps recorded")
        true (jumps <> []);
      Alcotest.(check bool)
        (Technique.name technique ^ ": no jump spans under brute force")
        true
        (List.for_all (fun r -> r.Trace.name <> "fast-forward") brute);
      Test_fast_forward.check_same_records (Technique.name technique) brute
        fast_rest)
    Test_fast_forward.techniques

(* The exported timeline of a real cell passes the schema validator and
   carries the promised tracks. *)
let test_end_to_end_export () =
  let kernel =
    Kernel.make ~name:"contended" ~grid_ctas:3 ~cta_threads:64
      Test_fast_forward.contended
  in
  let trace = Trace.create () in
  let stats =
    run_mode ~arch:Util.small_arch ~technique:Technique.Regmutex ~kernel
      ~fast_forward:true ~telemetry:(Some trace)
  in
  Alcotest.(check bool) "issue candidates counted" true
    (stats.Gpu_sim.Stats.issue_candidates > 0);
  let out = Format.asprintf "%a" Trace.export_chrome trace in
  (match Json_check.validate_chrome_trace out with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "schema: %s" msg);
  let rs = Util.records trace in
  let has name = List.exists (fun r -> r.Trace.name = name) rs in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("track has " ^ name ^ " records") true (has name))
    [ "warp"; "srp-hold"; "cta"; "srp-in-use"; "mem-busy-slots" ]

(* --- deadlock diagnostics ----------------------------------------------- *)

(* One extended-set section, two warps: warp 0 acquires then parks at the
   barrier; warp 1 can never acquire. The diagnostic must name the holder
   — which section, and for how long — without any telemetry trace
   attached. Under RegMutex the section comes from the SRP; under paired
   warps it is the pair's own set, which the sibling can never take. *)
let test_deadlock_holder () =
  let prog =
    Gpu_isa.Program.create ~name:"dl-hold"
      [| Gpu_isa.Instr.Acquire; Gpu_isa.Instr.Bar;
         Gpu_isa.Instr.Mov (0, Gpu_isa.Instr.Imm 1); Gpu_isa.Instr.Release;
         Gpu_isa.Instr.Exit |]
  in
  let arch =
    { Util.small_arch with Gpu_uarch.Arch_config.regfile_regs = 192 }
  in
  let kernel = Kernel.make ~name:"dl-hold" ~grid_ctas:1 ~cta_threads:64 prog in
  let deadlocks policy =
    let label what = Gpu_sim.Policy.name policy ^ ": " ^ what in
    let config =
      { (Gpu.default_config arch policy) with Gpu.max_cycles = 10_000 }
    in
    match Gpu.run config kernel with
    | _ -> Alcotest.fail (label "deadlock not detected")
    | exception Gpu.Deadlock info ->
        let sm = List.hd info.Gpu.dl_sms in
        Alcotest.(check int) (label "one section in use") 1 sm.Gpu.dl_srp_in_use;
        let holder =
          List.find_opt
            (fun (w : Gpu_sim.Sm.warp_diag) -> w.Gpu_sim.Sm.d_held_section <> None)
            sm.Gpu.dl_warps
        in
        (match holder with
        | None -> Alcotest.fail (label "no warp reported as holding a section")
        | Some w ->
            Alcotest.(check (option int)) (label "holds section 0") (Some 0)
              w.Gpu_sim.Sm.d_held_section;
            Alcotest.(check int) (label "warp 0 holds it") 0 w.Gpu_sim.Sm.d_warp;
            Alcotest.(check bool) (label "held for > 0 cycles") true
              (w.Gpu_sim.Sm.d_held_cycles > 0);
            Alcotest.(check bool) (label "held since before the freeze") true
              (w.Gpu_sim.Sm.d_held_cycles <= info.Gpu.dl_cycle);
            let rendered = Format.asprintf "%a" Gpu_sim.Sm.pp_warp_diag w in
            Alcotest.(check bool) (label "report names the held section") true
              (contains rendered "holds section 0"));
        (* Exactly one warp blocked on acquire, holding nothing. *)
        let waiters =
          List.filter
            (fun (w : Gpu_sim.Sm.warp_diag) ->
              w.Gpu_sim.Sm.d_block = Gpu_sim.Stats.Stall_acquire
              && w.Gpu_sim.Sm.d_held_section = None)
            sm.Gpu.dl_warps
        in
        Alcotest.(check int) (label "one empty-handed acquire waiter") 1
          (List.length waiters)
  in
  deadlocks (Gpu_sim.Policy.Srp { bs = 2; es = 2; verify = false });
  deadlocks (Gpu_sim.Policy.Srp_paired { bs = 2; es = 2; verify = false })

let suite =
  [ Alcotest.test_case "trace: ring wraparound drops oldest" `Quick
      test_ring_wraparound;
    Alcotest.test_case "trace: lazy growth preserves order" `Quick
      test_ring_growth;
    Alcotest.test_case "trace: Chrome export passes schema" `Quick
      test_export_schema;
    Alcotest.test_case "trace: schema validator rejects malformed" `Quick
      test_validator_rejects;
    Alcotest.test_case "profile: scopes accrue only when enabled" `Quick
      test_profile_scopes;
    Alcotest.test_case "sink off vs on: stats bit-identical" `Slow
      test_sink_off_on_identity;
    Alcotest.test_case "trace records mode-independent" `Slow
      test_trace_mode_identity;
    Alcotest.test_case "end-to-end export carries all tracks" `Quick
      test_end_to_end_export;
    Alcotest.test_case "deadlock diagnostics name the holder" `Quick
      test_deadlock_holder ]
