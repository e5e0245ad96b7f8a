module Technique = Regmutex.Technique
module Runner = Regmutex.Runner
module Policy = Gpu_sim.Policy
module Spec = Workloads.Spec

let arch = Gpu_uarch.Arch_config.gtx480

let test_prepare_baseline () =
  let spec = Workloads.Registry.find "BFS" in
  let p = Technique.prepare arch Technique.Baseline spec.Spec.kernel in
  (match p.Technique.policy with
  | Policy.Static { regs_per_thread } ->
      Alcotest.(check int) "full demand" 21 regs_per_thread
  | _ -> Alcotest.fail "expected static policy");
  Alcotest.(check bool) "no plan" true (p.Technique.plan = None)

let test_prepare_regmutex () =
  let spec = Workloads.Registry.find "BFS" in
  let p = Technique.prepare arch Technique.Regmutex spec.Spec.kernel in
  (match p.Technique.policy with
  | Policy.Srp { bs; es; verify } ->
      Alcotest.(check int) "paper |Bs|" 18 bs;
      Alcotest.(check int) "paper |Es|" 6 es;
      Alcotest.(check bool) "verification on" true verify
  | _ -> Alcotest.fail "expected SRP policy");
  (match p.Technique.plan with
  | Some plan -> Alcotest.(check bool) "primitives injected" true
                   (plan.Regmutex.Transform.n_acquires > 0)
  | None -> Alcotest.fail "expected a plan");
  (* The prepared kernel carries the transformed program. *)
  Alcotest.(check bool) "program instrumented" true
    (Gpu_isa.Program.count (fun i -> i = Gpu_isa.Instr.Acquire)
       p.Technique.kernel.Gpu_sim.Kernel.program
    > 0)

let test_prepare_es_override () =
  let spec = Workloads.Registry.find "BFS" in
  let options = { Technique.default_options with es_override = Some 4 } in
  let p = Technique.prepare ~options arch Technique.Regmutex spec.Spec.kernel in
  match p.Technique.policy with
  | Policy.Srp { bs; es; _ } ->
      Alcotest.(check int) "forced es" 4 es;
      Alcotest.(check int) "bs" 20 bs
  | _ -> Alcotest.fail "expected SRP policy"

let test_prepare_fallback () =
  (* An impossible override falls back to baseline behaviour. *)
  let spec = Workloads.Registry.find "Gaussian" in
  let options = { Technique.default_options with es_override = Some 40 } in
  let p = Technique.prepare ~options arch Technique.Regmutex spec.Spec.kernel in
  (match p.Technique.policy with
  | Policy.Static _ -> ()
  | _ -> Alcotest.fail "expected fallback to static");
  Alcotest.(check bool) "no choice" true (p.Technique.choice = None)

let test_prepare_owf_gate () =
  (* A frozen pair contributes ~1 warp of progress, so OWF shares only on
     a >= 2x occupancy gain. BFS gains 2 -> 3 CTAs (1.5x): unshared. *)
  let bfs = Workloads.Registry.find "BFS" in
  let p = Technique.prepare arch Technique.Owf bfs.Spec.kernel in
  (match p.Technique.policy with
  | Policy.Static _ -> ()
  | _ -> Alcotest.fail "BFS: expected unshared fallback below the 2x gate");
  (* The capacities behind the decision. *)
  let static_caps =
    Gpu_sim.Sm.cta_capacity_for arch
      ~policy:(Policy.Static { regs_per_thread = 21 })
      ~kernel:bfs.Spec.kernel
  in
  let owf_caps =
    Gpu_sim.Sm.cta_capacity_for arch
      ~policy:(Policy.Owf { bs = 18; es = 6 })
      ~kernel:bfs.Spec.kernel
  in
  Alcotest.(check int) "static CTAs" 2 static_caps;
  Alcotest.(check int) "OWF CTAs" 3 owf_caps;
  (* A kernel whose occupancy doubles under pairing does share: 34
     registers in 512-thread CTAs fit 1 CTA statically but 2 CTAs when
     pairs split 12 base + 24 shared. *)
  let prog =
    Gpu_isa.Builder.(
      assemble ~name:"sharey"
        ([ mul 0 ctaid ntid; add 0 (r 0) tid; mov 1 (imm 0) ]
        @ Workloads.Shape.bulge ~seed:0 ~acc:1 ~first:2 ~last:33 ~hold:2 ()
        @ [ store ~ofs:0x10000000 Gpu_isa.Instr.Global (r 0) (r 1); exit_ ]))
  in
  let kernel = Gpu_sim.Kernel.make ~name:"sharey" ~grid_ctas:4 ~cta_threads:512 prog in
  let options = { Technique.default_options with es_override = Some 24 } in
  let p = Technique.prepare ~options arch Technique.Owf kernel in
  match p.Technique.policy with
  | Policy.Owf { bs; es } ->
      Alcotest.(check (pair int int)) "shares above the gate" (12, 24) (bs, es)
  | _ -> Alcotest.fail "expected OWF sharing above the 2x gate"

let test_prepare_rfv () =
  let spec = Workloads.Registry.find "BFS" in
  let p = Technique.prepare arch Technique.Rfv spec.Spec.kernel in
  match p.Technique.policy with
  | Policy.Rfv { live; max_live } ->
      Alcotest.(check int) "live table covers program"
        (Gpu_isa.Program.length spec.Spec.kernel.Gpu_sim.Kernel.program)
        (Array.length live);
      Alcotest.(check int) "max live" 21 max_live
  | _ -> Alcotest.fail "expected RFV policy"

let test_runner_metrics () =
  let spec = Spec.with_grid (Workloads.Registry.find "Gaussian") 4 in
  let arch1 = { arch with Gpu_uarch.Arch_config.n_sms = 1 } in
  let run = Runner.execute arch1 Technique.Baseline spec.Spec.kernel in
  Alcotest.(check bool) "cycles measured" true (run.Runner.cycles > 0);
  Alcotest.(check (float 1e-9)) "full occupancy" 1.0 run.Runner.theoretical_occupancy;
  Alcotest.(check string) "kernel name" "gaussian" run.Runner.kernel_name

let test_reduction_math () =
  let spec = Spec.with_grid (Workloads.Registry.find "Gaussian") 2 in
  let arch1 = { arch with Gpu_uarch.Arch_config.n_sms = 1 } in
  let base =
    Runner.outcome (Runner.execute arch1 Technique.Baseline spec.Spec.kernel)
  in
  let fake_faster =
    { base with Regmutex.Outcome.cycles = base.Regmutex.Outcome.cycles / 2 }
  in
  Alcotest.(check (float 0.01)) "50% reduction" 50.
    (Regmutex.Outcome.reduction_pct ~baseline:base fake_faster);
  Alcotest.(check (float 0.01)) "-50% increase" (-50.)
    (Regmutex.Outcome.increase_pct ~baseline:base fake_faster)

(* The command-line tools' shared result path: prepare, simulate, derive
   the run, then [Runner.check_finished], whose [Error] line they print
   before exiting 1. A kernel that never exits must fail it, naming the
   cycle limit; one that finishes must pass. *)
let test_timed_out_run () =
  let spin =
    Gpu_isa.Parser.parse ~name:"spin" "spin:\n  add r0, r0, 1\n  bra spin\n  exit\n"
  in
  let result program =
    let kernel =
      Gpu_sim.Kernel.make ~name:program.Gpu_isa.Program.name ~grid_ctas:2
        ~cta_threads:64 program
    in
    let prepared, config =
      Runner.prepare ~max_cycles:5_000 Util.small_arch kernel Technique.Baseline
    in
    Runner.check_finished config
      (Runner.of_stats config prepared (Runner.simulate config prepared))
  in
  (match result spin with
  | Ok () -> Alcotest.fail "a kernel that never exits passed the check"
  | Error line ->
      Alcotest.(check string) "one line naming the limit"
        "spin/baseline did not finish within the 5000-cycle limit (0 of 2 CTAs \
         retired)"
        line);
  Alcotest.(check bool) "a finished kernel passes" true
    (result Util.straight = Ok ())

let test_names () =
  Alcotest.(check (list string)) "technique names"
    [ "baseline"; "regmutex"; "regmutex-paired"; "owf"; "rfv"; "regdem" ]
    (List.map Technique.name Technique.all);
  List.iter
    (fun t ->
      Alcotest.(check (option string))
        "of_name round-trips" (Some (Technique.name t))
        (Option.map Technique.name (Technique.of_name (Technique.name t))))
    Technique.all

(* One preparer per kernel (one analysis of its program, one |Es| choice,
   one RegMutex plan for both policies) must hand back exactly what one
   [prepare] per technique does: the same marshalled bytes, sharing
   included, or the same exception. *)
let prepared_bytes prepare t =
  match prepare t with
  | p -> Marshal.to_string (p : Technique.prepared) []
  | exception e -> "raised " ^ Printexc.to_string e

let check_shared_path ?options ?(before = ignore) label arch kernel =
  let facts = Gpu_analysis.Facts.of_program kernel.Gpu_sim.Kernel.program in
  (* What the caller compiled from the same facts first (the fuzz oracle's
     forced split) must not leak into the techniques' results. *)
  before facts;
  let shared = Technique.preparer ?options arch facts kernel in
  List.iter
    (fun t ->
      let separate t = Technique.prepare ?options arch t kernel in
      if prepared_bytes shared t <> prepared_bytes separate t then
        Alcotest.failf "%s, %s: the shared preparer differs from [prepare]" label
          (Technique.name t))
    Technique.all

let test_shared_path_matches_prepare () =
  let transform = Regmutex.Transform.default_options in
  let variants =
    [ ("default", Technique.default_options);
      ( "no widening",
        { Technique.default_options with
          transform = { transform with Regmutex.Transform.widen = false } } );
      ( "no permutation",
        { Technique.default_options with
          transform = { transform with Regmutex.Transform.permute = false } } );
      (* Both liveness flavours of the source program in one compile. *)
      ( "no widening, no permutation",
        { Technique.default_options with
          transform = { transform with widen = false; permute = false } } );
      ( "no mov compaction",
        { Technique.default_options with
          transform = { transform with Regmutex.Transform.mov_compact = false } } );
      ("|Es| = 4", { Technique.default_options with es_override = Some 4 }) ]
  in
  List.iter
    (fun spec ->
      List.iter
        (fun (label, options) ->
          check_shared_path ~options
            (Printf.sprintf "%s (%s)" spec.Spec.name label)
            arch spec.Spec.kernel)
        variants)
    Workloads.Registry.all;
  let fuzz_arch = { arch with Gpu_uarch.Arch_config.n_sms = 1; dram_interval = 1.0 } in
  for seed = 0 to 199 do
    let case = Fuzz.Gen.generate ~seed in
    let forced_split facts =
      let prog = case.Fuzz.Gen.program in
      let peak =
        Gpu_analysis.Liveness.max_pressure (Gpu_analysis.Facts.liveness facts)
      in
      let bs = max 1 (min (prog.Gpu_isa.Program.n_regs - 1) (peak - 1)) in
      try
        ignore
          (Regmutex.Transform.compile ~bs ~es:(prog.Gpu_isa.Program.n_regs - bs) facts)
      with Regmutex.Transform.Unsound _ | Invalid_argument _ -> ()
    in
    check_shared_path ~before:forced_split
      (Printf.sprintf "fuzz seed %d" seed)
      fuzz_arch (Fuzz.Gen.kernel case)
  done

let suite =
  [ Alcotest.test_case "prepare baseline" `Quick test_prepare_baseline;
    Alcotest.test_case "prepare regmutex (paper split)" `Quick test_prepare_regmutex;
    Alcotest.test_case "prepare with es override" `Quick test_prepare_es_override;
    Alcotest.test_case "prepare fallback" `Quick test_prepare_fallback;
    Alcotest.test_case "OWF occupancy gate" `Quick test_prepare_owf_gate;
    Alcotest.test_case "prepare RFV" `Quick test_prepare_rfv;
    Alcotest.test_case "runner metrics" `Quick test_runner_metrics;
    Alcotest.test_case "reduction arithmetic" `Quick test_reduction_math;
    Alcotest.test_case "a timed-out run fails the result check" `Quick
      test_timed_out_run;
    Alcotest.test_case "names" `Quick test_names;
    Alcotest.test_case "one preparer per kernel matches prepare" `Quick
      test_shared_path_matches_prepare ]
