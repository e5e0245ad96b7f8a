(* Command-line interface to the RegMutex library.

     regmutex list
     regmutex occupancy BFS [--half-rf]
     regmutex liveness BFS [--no-widen]
     regmutex transform BFS [--bs N] [--es N] [--half-rf]
     regmutex run BFS [--technique regmutex] [--half-rf] [--es N] [--grid N]
     regmutex trace BFS --out run.trace.json [--check] [...run flags]
     regmutex run-file kernel.rmx [--technique regmutex] [--grid N] [--simt]
     regmutex check
     regmutex sweep [fig7 fig9a ...] [--jobs N] [--no-cache] [--quick] [--profile]
     regmutex fuzz [--seeds N] [--seed0 N] [--jobs N] [--inject FAULT]
     regmutex storage *)

open Cmdliner

let arch_of half =
  let base = Experiments.Exp_config.default in
  if half then base.Experiments.Exp_config.half_arch
  else base.Experiments.Exp_config.arch

let spec_conv =
  let parse s =
    match Workloads.Registry.find s with
    | spec -> Ok spec
    | exception Not_found ->
        Error
          (`Msg
            (Printf.sprintf "unknown workload %S (try: %s)" s
               (String.concat ", " Workloads.Registry.names)))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf s.Workloads.Spec.name)

let spec_arg =
  Arg.(required & pos 0 (some spec_conv) None & info [] ~docv:"WORKLOAD")

let half_flag =
  Arg.(value & flag & info [ "half-rf" ] ~doc:"Use the halved register file.")

let no_fast_forward_flag =
  Arg.(
    value & flag
    & info [ "no-fast-forward" ]
        ~doc:
          "Step the simulator cycle by cycle instead of fast-forwarding \
           over fully idle spans. Statistics and telemetry records are \
           bit-identical in both modes; this is the brute-force reference \
           (and much slower on memory-bound kernels).")

let simt_flag =
  Arg.(
    value & flag
    & info [ "simt" ]
        ~doc:
          "Per-thread (SIMT) execution: lane-resolved register values, \
           predicated execution under an active-lane mask, and an \
           immediate-post-dominator reconvergence stack per warp. \
           Warp-uniform programs produce bit-identical statistics and \
           store traces with and without this flag; divergent programs \
           (e.g. bfs_frontier) require it.")

let min_bs_of kernel =
  let prog = kernel.Gpu_sim.Kernel.program in
  Gpu_analysis.Liveness.live_at_barriers prog (Gpu_analysis.Liveness.analyze prog)

(* --- list ----------------------------------------------------------- *)

let list_cmd =
  let doc = "List the workloads of Table I." in
  let run () =
    List.iter
      (fun s ->
        Printf.printf "%-14s %2d regs  %-18s %s\n" s.Workloads.Spec.name
          (Gpu_sim.Kernel.regs_per_thread s.Workloads.Spec.kernel)
          (match s.Workloads.Spec.group with
          | Workloads.Spec.Occupancy_limited -> "occupancy-limited"
          | Workloads.Spec.Regfile_sensitive -> "regfile-sensitive")
          s.Workloads.Spec.description)
      Workloads.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- occupancy ------------------------------------------------------ *)

let occupancy_cmd =
  let doc = "Occupancy analysis and |Es| heuristic for a workload." in
  let run spec half =
    let arch = arch_of half in
    let demand = Gpu_sim.Kernel.demand spec.Workloads.Spec.kernel in
    let base = Gpu_uarch.Occupancy.calculate arch demand in
    Format.printf "%s on %s: baseline %a@." spec.Workloads.Spec.name
      arch.Gpu_uarch.Arch_config.name Gpu_uarch.Occupancy.pp base;
    let min_bs = min_bs_of spec.Workloads.Spec.kernel in
    match Regmutex.Es_heuristic.choose arch ~demand ~min_bs () with
    | None -> Format.printf "no viable |Es| candidate@."
    | Some c ->
        Format.printf "heuristic: %a@." Regmutex.Es_heuristic.pp c;
        List.iter
          (fun (cand : Regmutex.Es_heuristic.candidate) ->
            Format.printf "  |Es|=%2d |Bs|=%2d -> %2d warps, %2d sections@."
              cand.Regmutex.Es_heuristic.es cand.Regmutex.Es_heuristic.bs
              cand.Regmutex.Es_heuristic.warps cand.Regmutex.Es_heuristic.sections)
          c.Regmutex.Es_heuristic.candidates
  in
  Cmd.v (Cmd.info "occupancy" ~doc) Term.(const run $ spec_arg $ half_flag)

(* --- liveness ------------------------------------------------------- *)

let liveness_cmd =
  let doc = "Per-instruction liveness and pressure profile." in
  let no_widen =
    Arg.(value & flag & info [ "no-widen" ] ~doc:"Disable divergence widening.")
  in
  let run spec no_widen =
    let prog = spec.Workloads.Spec.kernel.Gpu_sim.Kernel.program in
    let liveness = Gpu_analysis.Liveness.analyze ~widen:(not no_widen) prog in
    Format.printf "%a@." (Gpu_analysis.Liveness.pp prog) liveness;
    Format.printf "max pressure: %d; live at barriers: %d@."
      (Gpu_analysis.Liveness.max_pressure liveness)
      (Gpu_analysis.Liveness.live_at_barriers prog liveness)
  in
  Cmd.v (Cmd.info "liveness" ~doc) Term.(const run $ spec_arg $ no_widen)

(* --- transform ------------------------------------------------------ *)

let bs_opt = Arg.(value & opt (some int) None & info [ "bs" ] ~doc:"Force |Bs|.")
let es_opt = Arg.(value & opt (some int) None & info [ "es" ] ~doc:"Force |Es|.")

let transform_cmd =
  let doc = "Run the RegMutex compiler pass and print the instrumented kernel." in
  let run spec half bs es =
    let arch = arch_of half in
    let kernel = spec.Workloads.Spec.kernel in
    let prog = kernel.Gpu_sim.Kernel.program in
    let bs, es =
      match (bs, es) with
      | Some bs, Some es -> (bs, es)
      | _ -> (
          let demand = Gpu_sim.Kernel.demand kernel in
          match
            Regmutex.Es_heuristic.choose arch ~demand ~min_bs:(min_bs_of kernel) ()
          with
          | Some c -> (c.Regmutex.Es_heuristic.bs, c.Regmutex.Es_heuristic.es)
          | None -> failwith "no viable split; pass --bs and --es")
    in
    let plan = Regmutex.Transform.apply ~bs ~es prog in
    Format.printf "%a@.@.%a@." Regmutex.Transform.pp_plan plan Gpu_isa.Program.pp
      plan.Regmutex.Transform.transformed
  in
  Cmd.v (Cmd.info "transform" ~doc)
    Term.(const run $ spec_arg $ half_flag $ bs_opt $ es_opt)

(* --- run ------------------------------------------------------------ *)

let technique_conv =
  let parse s =
    match Regmutex.Technique.of_name s with
    | Some t -> Ok t
    | None -> Error (`Msg (Printf.sprintf "unknown technique %S" s))
  in
  Arg.conv (parse, fun ppf t -> Format.pp_print_string ppf (Regmutex.Technique.name t))

(* --- launch validation ------------------------------------------------ *)

(* A launch the machine cannot run, or a forced |Es| it cannot use, is a
   usage error (exit 2): not a crash, and not a silent fallback. *)
let usage_error cmd fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "regmutex %s: %s@." cmd msg;
      exit 2)
    fmt

let check_grid cmd grid =
  if grid < 1 then usage_error cmd "--grid must be at least 1 (got %d)" grid

(* The deadlock rules can leave a forced |Es| no split; the techniques
   would then run unshared, and the flag would be dropped without a
   word. *)
let check_es cmd arch kernel es =
  let min_bs = min_bs_of kernel in
  if Regmutex.Es_heuristic.with_es arch ~demand:(Gpu_sim.Kernel.demand kernel) ~min_bs ~es
     = None
  then
    usage_error cmd
      "--es %d leaves no viable |Bs|/|Es| split for %s (%d registers, %d live at \
       a barrier; the SRP must also fit one extended set)"
      es kernel.Gpu_sim.Kernel.name (Gpu_sim.Kernel.regs_per_thread kernel) min_bs

(* The machine refuses these shapes with [Invalid_argument]; they are the
   user's launch choice. The policy is the prepared one: a technique with
   nothing to share falls back to static allocation, which has neither
   limit. *)
let check_launch cmd arch ~half technique prepared =
  let policy = prepared.Regmutex.Technique.policy
  and kernel = prepared.Regmutex.Technique.kernel in
  let threads = kernel.Gpu_sim.Kernel.cta_threads in
  if Gpu_sim.Sm.cta_capacity_for arch ~policy ~kernel = 0 then
    usage_error cmd "a CTA of %d threads does not fit on an SM%s (zero occupancy)"
      threads
      (if half then " with --half-rf" else "");
  match policy with
  | Gpu_sim.Policy.Srp_paired _ | Gpu_sim.Policy.Owf _ ->
      let wpc = Gpu_sim.Kernel.warps_per_cta arch kernel in
      if wpc mod 2 <> 0 then
        usage_error cmd
          "%d threads per CTA give %d warps; the %s policy pairs warps and \
           needs an even count"
          threads wpc
          (Regmutex.Technique.name technique)
  | Gpu_sim.Policy.Static _ | Gpu_sim.Policy.Srp _ | Gpu_sim.Policy.Rfv _
  | Gpu_sim.Policy.Regdem _ ->
      ()

(* One validated simulation: the shared body of run, run-file and trace.
   [report] prints the run; a run that stopped at the cycle limit then
   exits 1, with one stderr line naming the limit. *)
let simulate ?telemetry cmd ~half technique kernel ~es no_ff simt report =
  let arch = arch_of half in
  Option.iter (check_es cmd arch kernel) es;
  let options =
    { Regmutex.Technique.default_options with es_override = es; simt }
  in
  let prepared, config =
    Regmutex.Runner.prepare ~options ~fast_forward:(not no_ff) ?telemetry arch
      kernel technique
  in
  check_launch cmd arch ~half technique prepared;
  let run =
    Regmutex.Runner.of_stats config prepared
      (Regmutex.Runner.simulate config prepared)
  in
  report run;
  match Regmutex.Runner.check_finished config run with
  | Ok () -> ()
  | Error msg ->
      Format.eprintf "regmutex %s: %s@." cmd msg;
      exit 1

(* A registry workload, with its grid overridden. *)
let workload_kernel cmd spec grid =
  Option.iter (check_grid cmd) grid;
  match grid with
  | Some g -> (Workloads.Spec.with_grid spec g).Workloads.Spec.kernel
  | None -> spec.Workloads.Spec.kernel

let print_run run =
  Format.printf "%a@." Regmutex.Runner.pp run;
  Format.printf "%a@." Gpu_sim.Stats.pp run.Regmutex.Runner.stats;
  match run.Regmutex.Runner.prepared.Regmutex.Technique.plan with
  | Some plan -> Format.printf "%a@." Regmutex.Transform.pp_plan plan
  | None -> ()

let technique_opt =
  Arg.(
    value
    & opt technique_conv Regmutex.Technique.Regmutex
    & info [ "technique"; "t" ] ~doc:"baseline | regmutex | paired | owf | rfv | regdem")

let grid_opt =
  Arg.(value & opt (some int) None & info [ "grid" ] ~doc:"Override grid CTAs.")

let run_cmd =
  let doc = "Simulate a workload under a technique and print every counter." in
  let run spec half technique es grid no_ff simt =
    simulate "run" ~half technique (workload_kernel "run" spec grid) ~es no_ff
      simt print_run
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ spec_arg $ half_flag $ technique_opt $ es_opt $ grid_opt
      $ no_fast_forward_flag $ simt_flag)

(* --- trace ------------------------------------------------------------ *)

let trace_cmd =
  let doc =
    "Simulate a workload with the trace recorder attached and export a \
     Chrome trace-event JSON file loadable in Perfetto (ui.perfetto.dev): \
     one track per warp slot, SRP-hold and stall-episode spans, and \
     SRP-occupancy / memory-slot counter tracks."
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Output path (default: $(i,WORKLOAD).trace.json).")
  in
  let capacity =
    Arg.(
      value & opt (some int) None
      & info [ "capacity" ] ~docv:"N"
          ~doc:
            "Trace ring capacity in records (default 1,000,000). When \
             exceeded, the oldest records are dropped and the export is \
             the most recent window.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Re-read the written file and validate the trace-event schema.")
  in
  let run spec half technique es grid no_ff simt out capacity check =
    let trace = Telemetry.Trace.create ?capacity () in
    simulate ~telemetry:trace "trace" ~half technique
      (workload_kernel "trace" spec grid) ~es no_ff simt
    @@ fun _ ->
    let path =
      match out with
      | Some p -> p
      | None -> spec.Workloads.Spec.name ^ ".trace.json"
    in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        let ppf = Format.formatter_of_out_channel oc in
        Telemetry.Trace.export_chrome ppf trace;
        Format.pp_print_flush ppf ());
    Printf.printf "wrote %s: %d records (%d dropped)\n" path
      (Telemetry.Trace.length trace)
      (Telemetry.Trace.dropped trace);
    if check then begin
      let ic = open_in_bin path in
      let contents =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Telemetry.Json_check.validate_chrome_trace contents with
      | Ok n -> Printf.printf "schema ok: %d events\n" n
      | Error msg ->
          Printf.eprintf "schema check failed: %s\n" msg;
          exit 1
    end
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ spec_arg $ half_flag $ technique_opt $ es_opt $ grid_opt
      $ no_fast_forward_flag $ simt_flag $ out $ capacity $ check)

(* --- run-file --------------------------------------------------------- *)

let run_file_cmd =
  let doc =
    "Parse a kernel from a .rmx assembly file and simulate it under a \
     technique (see examples/vecscale.rmx)."
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let grid = Arg.(value & opt int 48 & info [ "grid" ] ~doc:"Grid CTAs.") in
  let threads = Arg.(value & opt int 256 & info [ "threads" ] ~doc:"Threads per CTA.") in
  let params =
    Arg.(value & opt (list int) [ 8 ] & info [ "params" ] ~doc:"Launch parameters.")
  in
  let run path half technique grid threads params no_ff simt =
    let max_threads = (arch_of half).Gpu_uarch.Arch_config.max_threads in
    check_grid "run-file" grid;
    if threads < 1 || threads > max_threads then
      usage_error "run-file"
        "--threads must be between 1 and %d, the SM's thread capacity (got %d)"
        max_threads threads;
    match Gpu_isa.Parser.parse_file path with
    | exception Gpu_isa.Parser.Parse_error e ->
        Format.eprintf "%s: %a@." path Gpu_isa.Parser.pp_error e;
        exit 1
    | program ->
        let kernel =
          Gpu_sim.Kernel.make ~name:program.Gpu_isa.Program.name ~grid_ctas:grid
            ~cta_threads:threads ~params:(Array.of_list params) program
        in
        simulate "run-file" ~half technique kernel ~es:None no_ff simt print_run
  in
  Cmd.v (Cmd.info "run-file" ~doc)
    Term.(
      const run $ path $ half_flag $ technique_opt $ grid $ threads $ params
      $ no_fast_forward_flag $ simt_flag)

(* --- check ----------------------------------------------------------- *)

let check_cmd =
  let doc = "Audit every workload: register count vs Table I, max pressure, barrier liveness." in
  let run () =
    List.iter
      (fun spec ->
        let kernel = spec.Workloads.Spec.kernel in
        let prog = kernel.Gpu_sim.Kernel.program in
        let liveness = Gpu_analysis.Liveness.analyze prog in
        let names = Gpu_sim.Kernel.regs_per_thread kernel in
        let pressure = Gpu_analysis.Liveness.max_pressure liveness in
        let at_bar = Gpu_analysis.Liveness.live_at_barriers prog liveness in
        let status =
          if names <> spec.Workloads.Spec.paper_regs then "REGS-MISMATCH"
          else if pressure < names - 1 then "PRESSURE-LOW"
          else if at_bar > spec.Workloads.Spec.paper_bs then "BARRIER-HIGH"
          else "ok"
        in
        Printf.printf "%-14s names=%2d (paper %2d)  max-pressure=%2d  at-bar=%2d  %s\n"
          spec.Workloads.Spec.name names spec.Workloads.Spec.paper_regs pressure
          at_bar status)
      Workloads.Registry.all
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ const ())

(* --- sweep ----------------------------------------------------------- *)

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Time the host-side phases (prepare, simulate, merge, oracle \
           stages) and print a report to stderr at exit.")

let with_profile profile f =
  if not profile then f ()
  else begin
    Telemetry.Profile.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Format.eprintf "%a@?" Telemetry.Profile.pp_report ())
      f
  end

let sweep_cmd =
  let doc =
    "Run the experiment sweep (tables, figures, ablations) with parallel \
     workers and a persistent result store under _results/."
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the simulation fan-out. 0 selects one \
             worker per available core; 1 (the default) runs serially. \
             Output is byte-identical for any value.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Do not read or write the persistent store under _results/.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Quarter-size grids.")
  in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiments to run (default: all). See $(b,sweep --list).")
  in
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List experiment names and exit.")
  in
  let run jobs no_cache quick names list_only no_ff profile =
    let module Engine = Experiments.Engine in
    let module Suite = Experiments.Suite in
    if list_only then
      List.iter
        (fun (e : Suite.entry) -> Printf.printf "%-10s %s\n" e.Suite.name e.Suite.doc)
        Suite.all
    else begin
      Engine.set_jobs jobs;
      Engine.set_fast_forward (not no_ff);
      Engine.set_cache_dir (if no_cache then None else Some "_results");
      let cfg =
        if quick then Experiments.Exp_config.quick
        else Experiments.Exp_config.default
      in
      let entries =
        match names with
        | [] -> Suite.all
        | names ->
            List.map
              (fun n ->
                match Suite.find n with
                | Some e -> e
                | None ->
                    Printf.eprintf "unknown experiment %S; available: %s\n" n
                      (String.concat ", " Suite.names);
                    exit 1)
              names
      in
      let t0 = Unix.gettimeofday () in
      with_profile profile (fun () -> Suite.run cfg entries);
      (* Stderr, so stdout stays comparable across job counts and runs. *)
      Printf.eprintf
        "sweep: %d simulation(s), %d distinct, in %.1fs (%d worker%s%s%s)\n"
        (Engine.simulations ()) (Engine.machine_runs ())
        (Unix.gettimeofday () -. t0)
        (Engine.jobs ())
        (if Engine.jobs () = 1 then "" else "s")
        (if no_cache then ", no store"
         else
           Printf.sprintf ", store: _results/%s/"
             (Experiments.Result_store.version_tag ()))
        (if no_ff then ", brute-force" else "");
      let instructions = Engine.simulated_instructions () in
      Printf.eprintf "sweep: %d warp-instruction(s) simulated%s\n" instructions
        (if instructions = 0 then ""
         else
           Printf.sprintf ", %.0f host ns each (summed over workers)"
             (Engine.simulation_seconds () *. 1e9 /. float_of_int instructions))
    end
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ jobs $ no_cache $ quick $ names $ list_flag
      $ no_fast_forward_flag $ profile_flag)

(* --- fuzz ------------------------------------------------------------ *)

let fuzz_cmd =
  let doc =
    "Differential fuzzing: generate random kernels and check every \
     architectural invariant (technique store-trace equality, fast-forward \
     bit-identity, SRP conservation, forward progress). Failing seeds are \
     shrunk and persisted under the corpus directory."
  in
  let seeds =
    Arg.(value & opt int 200 & info [ "seeds" ] ~docv:"N" ~doc:"Fresh seeds to test.")
  in
  let seed0 =
    Arg.(value & opt int 0 & info [ "seed0" ] ~docv:"S" ~doc:"First fresh seed.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the seed sweep. 0 selects one worker per \
             available core; results are deterministic for any value.")
  in
  let dir =
    Arg.(
      value & opt string Fuzz.Corpus.default_dir
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Corpus directory for failing seeds and shrunk counterexamples.")
  in
  let no_corpus =
    Arg.(
      value & flag
      & info [ "no-corpus" ]
          ~doc:"Do not read or write the corpus directory (no artifacts).")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Skip delta-debugging of counterexamples.")
  in
  let inject =
    let fault_conv =
      Arg.conv
        ( (fun s ->
            match Fuzz.Oracle.fault_of_string s with
            | Ok f -> Ok f
            | Error m -> Error (`Msg m)),
          fun ppf f -> Format.pp_print_string ppf (Fuzz.Oracle.fault_name f) )
    in
    Arg.(
      value & opt (some fault_conv) None
      & info [ "inject" ] ~docv:"FAULT"
          ~doc:
            "Self-test mode: inject a fault (drop-acquire | early-release | \
             drop-mov | oob-spill | mask-corrupt) into each case as a program \
             mutation — mask-corrupt sends lane 1 of every warp to an exit \
             before its first instruction, under SIMT — and verify the \
             oracle catches it on at least one seed. Exit status 0 iff \
             caught.")
  in
  let run seeds seed0 jobs dir no_corpus no_shrink inject profile =
    if seeds < 0 then usage_error "fuzz" "--seeds must be at least 0 (got %d)" seeds;
    let config =
      {
        Fuzz.Driver.n_seeds = seeds;
        seed0;
        jobs = (if jobs = 0 then Domain.recommended_domain_count () else jobs);
        dir = (if no_corpus then None else Some dir);
        inject;
        do_shrink = not no_shrink;
      }
    in
    let t0 = Unix.gettimeofday () in
    let summary =
      with_profile profile (fun () ->
          Fuzz.Driver.run Format.std_formatter config)
    in
    (* Stderr, so stdout stays comparable across job counts and runs. *)
    Printf.eprintf "fuzz: %d simulation(s), %d distinct, in %.1fs (%d worker%s)\n"
      (Fuzz.Oracle.simulations ()) (Fuzz.Oracle.machine_runs ())
      (Unix.gettimeofday () -. t0)
      config.Fuzz.Driver.jobs
      (if config.Fuzz.Driver.jobs = 1 then "" else "s");
    exit (Fuzz.Driver.exit_code config summary)
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ seeds $ seed0 $ jobs $ dir $ no_corpus $ no_shrink $ inject
      $ profile_flag)

(* --- storage -------------------------------------------------------- *)

let storage_cmd =
  let doc = "Hardware storage cost of each technique." in
  let run () = Experiments.Storage.print Experiments.Exp_config.default in
  Cmd.v (Cmd.info "storage" ~doc) Term.(const run $ const ())

let () =
  let doc = "RegMutex: inter-warp GPU register time-sharing (ISCA 2018)" in
  let info = Cmd.info "regmutex" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; occupancy_cmd; liveness_cmd; transform_cmd; run_cmd;
            trace_cmd; run_file_cmd; check_cmd; sweep_cmd;
            fuzz_cmd; storage_cmd ]))
