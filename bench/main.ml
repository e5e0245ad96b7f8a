(* Benchmark harness: regenerates every table and figure of the RegMutex
   evaluation (see DESIGN.md's per-experiment index) and, with `perf`,
   times the core primitives with Bechamel.

   Usage:
     dune exec bench/main.exe              # all figures, full-size grids
     dune exec bench/main.exe -- quick     # all figures, quarter grids
     dune exec bench/main.exe -- fig7 fig10
     dune exec bench/main.exe -- sweep     # serial vs parallel vs brute force
     dune exec bench/main.exe -- cycles    # cycle-skip microbenchmark
                                           # (writes BENCH_cycle_skip.json)
     dune exec bench/main.exe -- regdem    # RegDem occupancy/energy head-to-head
                                           # (writes BENCH_regdem.json)
     dune exec bench/main.exe -- telemetry # sink-on vs sink-off overhead
                                           # (writes BENCH_telemetry_overhead.json)
     dune exec bench/main.exe -- simt      # per-lane vs warp-uniform execution:
                                           # bit-identity on uniform kernels,
                                           # overhead factor, divergent cells
                                           # (writes BENCH_simt.json)
     dune exec bench/main.exe -- perf      # Bechamel micro-benchmarks
     dune exec bench/main.exe -- report [--check]
                                           # trajectory summary of the committed
                                           # BENCH_*.json vs bench/trajectory.json *)

module Suite = Experiments.Suite
module Engine = Experiments.Engine

(* BENCH_*.json artifacts live at the repo root regardless of the
   directory dune was invoked from, so the report/CI gate and `git add`
   always find them in one place. *)
let artifact_path name =
  match Experiments.Report.find_repo_root () with
  | Some root -> Filename.concat root name
  | None -> name

let run_experiment cfg name =
  match Suite.find name with
  | Some e ->
      Printf.printf "\n================ %s ================\n%!" name;
      let t0 = Unix.gettimeofday () in
      e.Suite.print cfg;
      Printf.printf "(%s finished in %.1fs)\n%!" name (Unix.gettimeofday () -. t0)
  | None ->
      Printf.eprintf "unknown experiment %S; available: %s, sweep, perf\n" name
        (String.concat ", " Suite.names);
      exit 1

(* Serial vs parallel vs brute-force sweep: drive every simulation-bearing
   experiment through its row builders (no table rendering) with 1 worker,
   again with one worker per core, and again serially with fast-forward
   disabled — each from a cold in-memory cache and no disk store — and
   compare wall time and results. A divergence between fast-forward and
   brute force is a simulator bug and fails the run, and so does a mode
   that makes a different (or zero) number of machine runs. *)
let sweep_bench cfg =
  let row_builders : (Experiments.Exp_config.t -> string list) list =
    [ (fun cfg ->
        List.map
          (fun (r : Experiments.Fig7.row) -> string_of_int r.regmutex_cycles)
          (Experiments.Fig7.rows cfg));
      (fun cfg ->
        List.map
          (fun (r : Experiments.Fig8.row) -> string_of_int r.half_rm_cycles)
          (Experiments.Fig8.rows cfg));
      (fun cfg ->
        List.map
          (fun (r : Experiments.Fig9.row_a) -> string_of_float r.regmutex_red)
          (Experiments.Fig9.rows_a cfg));
      (fun cfg ->
        List.map
          (fun (r : Experiments.Fig9.row_b) -> string_of_float r.regmutex_inc)
          (Experiments.Fig9.rows_b cfg));
      (fun cfg ->
        List.map
          (fun (r : Experiments.Fig12.row_a) -> string_of_float r.paired_red)
          (Experiments.Fig12.rows_a cfg));
      (fun cfg ->
        List.map
          (fun (r : Experiments.Fig13.row) -> string_of_float r.paired_ratio)
          (Experiments.Fig13.rows cfg));
      (fun cfg ->
        List.map
          (fun (r : Experiments.Sched_ablation.row) ->
            string_of_int r.regmutex_cycles)
          (Experiments.Sched_ablation.rows cfg)) ]
  in
  let timed ?(fast_forward = true) jobs =
    Engine.clear ();
    Engine.set_cache_dir None;
    Engine.set_jobs jobs;
    Engine.set_fast_forward fast_forward;
    let sims_before = Engine.simulations () in
    let runs_before = Engine.machine_runs () in
    let t0 = Unix.gettimeofday () in
    let results = List.concat_map (fun f -> f cfg) row_builders in
    let dt = Unix.gettimeofday () -. t0 in
    Engine.set_fast_forward true;
    ( dt,
      Engine.simulations () - sims_before,
      Engine.machine_runs () - runs_before,
      results )
  in
  let serial_t, serial_sims, serial_runs, serial_r = timed 1 in
  Printf.printf "serial:   %4d simulations, %4d machine runs in %6.2fs (1 worker)\n%!"
    serial_sims serial_runs serial_t;
  let jobs = Engine.auto_jobs () in
  let par_t, par_sims, par_runs, par_r = timed 0 in
  Printf.printf "parallel: %4d simulations, %4d machine runs in %6.2fs (%d worker%s)\n%!"
    par_sims par_runs par_t jobs
    (if jobs = 1 then "" else "s");
  let brute_t, brute_sims, brute_runs, brute_r = timed ~fast_forward:false 1 in
  Printf.printf
    "brute:    %4d simulations, %4d machine runs in %6.2fs (1 worker, no fast-forward)\n%!"
    brute_sims brute_runs brute_t;
  Printf.printf "parallel speedup:     %.2fx; results %s\n" (serial_t /. par_t)
    (if serial_r = par_r then "identical" else "DIFFER");
  Printf.printf "fast-forward speedup: %.2fx; results %s\n" (brute_t /. serial_t)
    (if serial_r = brute_r then "identical" else "DIFFER");
  (* Every mode must simulate the same inputs for real: a brute-force
     pass served from fast-forwarded statistics would compare nothing. *)
  let runs_agree =
    serial_runs > 0 && par_runs = serial_runs && brute_runs = serial_runs
  in
  if not runs_agree then print_endline "machine runs DIFFER";
  Engine.set_jobs 1;
  if serial_r <> par_r || serial_r <> brute_r || not runs_agree then exit 1

(* Cycle-skip microbenchmark: every suite cell (workload x technique on
   that workload's evaluation architecture) simulated twice, brute force
   then fast-forward, from scratch each time (no engine, no caches). The
   two runs must produce the same fingerprint — a divergence is a
   simulator bug and fails the process — and the wall-time ratio is the
   cycle-skipping payoff, largest on memory-bound, low-occupancy cells
   where whole stall spans collapse into one bulk update. Results land in
   BENCH_cycle_skip.json for the CI artifact. *)
let cycles_bench ~quick cfg =
  let module Runner = Regmutex.Runner in
  let module Technique = Regmutex.Technique in
  let techniques = Technique.all in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  Printf.printf "%-16s %-16s %10s %10s %8s  %s\n" "workload" "technique"
    "brute (s)" "fast (s)" "speedup" "results";
  let cells =
    List.concat_map
      (fun spec ->
        let arch = Experiments.Exp_config.eval_arch cfg spec in
        let kernel = Experiments.Exp_config.kernel_of cfg spec in
        List.map
          (fun technique ->
            let brute_t, brute =
              time (fun () ->
                  Runner.execute ~fast_forward:false arch technique kernel)
            in
            let fast_t, fast =
              time (fun () ->
                  Runner.execute ~fast_forward:true arch technique kernel)
            in
            let identical =
              String.equal (Runner.fingerprint brute) (Runner.fingerprint fast)
            in
            let speedup = brute_t /. Float.max fast_t 1e-9 in
            Printf.printf "%-16s %-16s %10.3f %10.3f %7.2fx  %s\n%!"
              spec.Workloads.Spec.name (Technique.name technique) brute_t
              fast_t speedup
              (if identical then "identical" else "DIFFER");
            (spec.Workloads.Spec.name, Technique.name technique, brute_t,
             fast_t, speedup, identical))
          techniques)
      (Workloads.Registry.all @ Workloads.Registry.latency_bound)
  in
  let best =
    List.fold_left (fun acc (_, _, _, _, s, _) -> Float.max acc s) 0. cells
  in
  let all_identical = List.for_all (fun (_, _, _, _, _, ok) -> ok) cells in
  Printf.printf "max speedup: %.2fx; results %s\n" best
    (if all_identical then "identical" else "DIFFER");
  let oc = open_out (artifact_path "BENCH_cycle_skip.json") in
  Printf.fprintf oc
    "{\n  \"bench\": \"cycle_skip\",\n  \"config\": %S,\n  \"max_speedup\": %.3f,\n  \"all_identical\": %b,\n  \"cells\": [\n"
    (if quick then "quick" else "full")
    best all_identical;
  List.iteri
    (fun i (w, t, bt, ft, s, ok) ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"technique\": %S, \"brute_s\": %.4f, \"fast_s\": %.4f, \"speedup\": %.3f, \"identical\": %b}%s\n"
        w t bt ft s ok
        (if i = List.length cells - 1 then "" else ","))
    cells;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d cells)\n" (artifact_path "BENCH_cycle_skip.json")
    (List.length cells);
  if not all_identical then exit 1

(* SoA-core benchmark: every suite cell timed in both stepping modes on
   the current simulator core, with the run fingerprint recorded per cell.
   The ff/bf fingerprints must agree (a divergence fails the process).
   With [--baseline FILE] — a BENCH_soa_core.json produced by an earlier
   build on the same machine and grid config — each cell also reports its
   wall-time speedup against the baseline and asserts its fingerprint is
   bit-identical to the baseline's, so a core rewrite is checked against
   the seed simulator cell by cell. Cells are classed compute (Table I
   registry) or latency (the latency-bound registry): the SoA rewrite must
   lift the compute class without regressing the latency class. Results
   land in BENCH_soa_core.json for the CI artifact. *)
let soa_bench ~quick ?baseline cfg =
  let module Runner = Regmutex.Runner in
  let module Technique = Regmutex.Technique in
  let techniques = Technique.all in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let config_name = if quick then "quick" else "full" in
  (* Baseline: map (workload, technique) -> (fast_s, fingerprint), plus the
     grid config it was measured under. Fingerprints are only comparable
     when the configs match; timings are only comparable on one machine. *)
  let baseline_config, baseline_cells =
    match baseline with
    | None -> (None, [])
    | Some path ->
        let ic = open_in path in
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        close_in ic;
        let open Telemetry.Json_check in
        let json = parse s in
        let field name = function
          | Obj kvs -> List.assoc_opt name kvs
          | _ -> None
        in
        let str = function Some (Str s) -> Some s | _ -> None in
        let num = function Some (Num f) -> Some f | _ -> None in
        let cfg_name = str (field "config" json) in
        let cells =
          match field "cells" json with
          | Some (List cells) ->
              List.filter_map
                (fun c ->
                  match
                    ( str (field "workload" c), str (field "technique" c),
                      num (field "fast_s" c), str (field "fingerprint" c) )
                  with
                  | Some w, Some t, Some fast, fp -> Some ((w, t), (fast, fp))
                  | _ -> None)
                cells
          | _ -> []
        in
        (cfg_name, cells)
  in
  let baseline_comparable = baseline_config = Some config_name in
  (match (baseline, baseline_config) with
  | Some path, Some bc when bc <> config_name ->
      Printf.printf
        "note: baseline %s was measured under config %S, this run is %S — \
         timings reported, fingerprints not compared\n"
        path bc config_name
  | _ -> ());
  let latency_names =
    List.map (fun s -> s.Workloads.Spec.name) Workloads.Registry.latency_bound
  in
  Printf.printf "%-16s %-16s %-8s %10s %10s %9s  %s\n" "workload" "technique"
    "class" "brute (s)" "fast (s)" "vs-seed" "results";
  let cells =
    List.concat_map
      (fun spec ->
        let arch = Experiments.Exp_config.eval_arch cfg spec in
        let kernel = Experiments.Exp_config.kernel_of cfg spec in
        let wname = spec.Workloads.Spec.name in
        let cls = if List.mem wname latency_names then "latency" else "compute" in
        List.map
          (fun technique ->
            let brute_t, brute =
              time (fun () ->
                  Runner.execute ~fast_forward:false arch technique kernel)
            in
            let fast_t, fast =
              time (fun () ->
                  Runner.execute ~fast_forward:true arch technique kernel)
            in
            let fp = Runner.fingerprint fast in
            let modes_identical = String.equal (Runner.fingerprint brute) fp in
            let tname = Technique.name technique in
            let base = List.assoc_opt (wname, tname) baseline_cells in
            let speedup =
              Option.map (fun (bfast, _) -> bfast /. Float.max fast_t 1e-9) base
            in
            let seed_identical =
              if not baseline_comparable then None
              else
                match base with
                | Some (_, Some bfp) -> Some (String.equal bfp fp)
                | Some (_, None) | None -> None
            in
            Printf.printf "%-16s %-16s %-8s %10.3f %10.3f %9s  %s%s\n%!" wname
              tname cls brute_t fast_t
              (match speedup with
              | Some s -> Printf.sprintf "%.2fx" s
              | None -> "-")
              (if modes_identical then "identical" else "DIFFER")
              (match seed_identical with
              | Some true -> ", =seed"
              | Some false -> ", DIFFERS FROM SEED"
              | None -> "");
            (wname, tname, cls, brute_t, fast_t, fp, speedup, modes_identical,
             seed_identical))
          techniques)
      (Workloads.Registry.all @ Workloads.Registry.latency_bound)
  in
  let geomean = function
    | [] -> None
    | l ->
        Some
          (exp
             (List.fold_left (fun a s -> a +. log s) 0. l
             /. float_of_int (List.length l)))
  in
  let speedups cls =
    List.filter_map
      (fun (_, _, c, _, _, _, s, _, _) -> if c = cls then s else None)
      cells
  in
  let gm_compute = geomean (speedups "compute") in
  let gm_latency = geomean (speedups "latency") in
  let all_modes = List.for_all (fun (_, _, _, _, _, _, _, ok, _) -> ok) cells in
  let all_seed =
    List.for_all
      (fun (_, _, _, _, _, _, _, _, s) -> s <> Some false)
      cells
  in
  let pp_gm = function Some g -> Printf.sprintf "%.2fx" g | None -> "-" in
  Printf.printf
    "geomean vs seed: compute %s, latency %s; modes %s; seed fingerprints %s\n"
    (pp_gm gm_compute) (pp_gm gm_latency)
    (if all_modes then "identical" else "DIFFER")
    (if not baseline_comparable then "not compared"
     else if all_seed then "identical"
     else "DIFFER");
  let oc = open_out (artifact_path "BENCH_soa_core.json") in
  Printf.fprintf oc
    "{\n  \"bench\": \"soa_core\",\n  \"config\": %S,\n  \"baseline\": %s,\n  \
     \"geomean_speedup_compute\": %s,\n  \"geomean_speedup_latency\": %s,\n  \
     \"all_identical\": %b,\n  \"seed_identical\": %s,\n  \"cells\": [\n"
    config_name
    (match baseline with Some p -> Printf.sprintf "%S" p | None -> "null")
    (match gm_compute with Some g -> Printf.sprintf "%.3f" g | None -> "null")
    (match gm_latency with Some g -> Printf.sprintf "%.3f" g | None -> "null")
    all_modes
    (if baseline_comparable then string_of_bool all_seed else "null");
  List.iteri
    (fun i (w, t, cls, bt, ft, fp, speedup, ok, seed) ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"technique\": %S, \"class\": %S, \
         \"brute_s\": %.4f, \"fast_s\": %.4f, \"fingerprint\": %S, \
         \"speedup_vs_seed\": %s, \"identical\": %b, \"seed_identical\": %s}%s\n"
        w t cls bt ft fp
        (match speedup with Some s -> Printf.sprintf "%.3f" s | None -> "null")
        ok
        (match seed with Some b -> string_of_bool b | None -> "null")
        (if i = List.length cells - 1 then "" else ","))
    cells;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d cells)\n" (artifact_path "BENCH_soa_core.json")
    (List.length cells);
  if not (all_modes && all_seed) then exit 1

(* RegDem benchmark: every suite workload run under baseline and RegDem
   in both stepping modes. The ff/bf fingerprints must agree (a
   divergence fails the process). Per cell: the occupancy gain demotion
   bought, the cycle cost it paid, the spill/fill traffic it generated,
   and the modelled energy factor vs baseline (Gpu_uarch.Energy_model) —
   all pure simulation counts, deterministic across machines, so the
   summary means are gate-able against bench/trajectory.json. Results
   land in BENCH_regdem.json for the CI artifact. *)
let regdem_bench ~quick cfg =
  let module Runner = Regmutex.Runner in
  let module Technique = Regmutex.Technique in
  let module Policy = Gpu_sim.Policy in
  let module Stats = Gpu_sim.Stats in
  let module E = Gpu_uarch.Energy_model in
  Printf.printf "%-16s %6s %6s %7s %9s %9s %9s  %s\n" "workload" "base-w"
    "rd-w" "gain" "cyc red" "spill+fill" "energy x" "results";
  let cells =
    List.map
      (fun spec ->
        let arch = Experiments.Exp_config.eval_arch cfg spec in
        let kernel = Experiments.Exp_config.kernel_of cfg spec in
        let base = Runner.execute arch Technique.Baseline kernel in
        let bf =
          Runner.execute ~fast_forward:false arch Technique.Regdem kernel
        in
        let ff = Runner.execute arch Technique.Regdem kernel in
        let identical =
          String.equal (Runner.fingerprint bf) (Runner.fingerprint ff)
        in
        let gain =
          float_of_int ff.Runner.theoretical_warps
          /. float_of_int base.Runner.theoretical_warps
        in
        let reduction =
          Regmutex.Outcome.reduction_pct ~baseline:(Runner.outcome base)
            (Runner.outcome ff)
        in
        let traffic =
          ff.Runner.stats.Stats.spill_stores + ff.Runner.stats.Stats.fill_loads
        in
        let energy t (r : Runner.run) =
          (Technique.energy arch t (Stats.counters r.Runner.stats)).E.total_nj
        in
        let factor =
          energy Technique.Regdem ff /. energy Technique.Baseline base
        in
        let demoted =
          match ff.Runner.prepared.Technique.policy with
          | Policy.Regdem { spill_words; _ } -> spill_words > 0
          | _ -> false
        in
        Printf.printf "%-16s %6d %6d %6.2fx %8.1f%% %10d %8.2fx  %s\n%!"
          spec.Workloads.Spec.name base.Runner.theoretical_warps
          ff.Runner.theoretical_warps gain reduction traffic factor
          (if identical then "identical" else "DIFFER");
        (spec.Workloads.Spec.name, gain, reduction, traffic, factor, demoted,
         identical))
      (Workloads.Registry.all @ Workloads.Registry.latency_bound)
  in
  let mean f =
    List.fold_left (fun a c -> a +. f c) 0. cells
    /. float_of_int (List.length cells)
  in
  let mean_gain = mean (fun (_, g, _, _, _, _, _) -> g) in
  let mean_factor = mean (fun (_, _, _, _, f, _, _) -> f) in
  let demotions =
    List.length (List.filter (fun (_, _, _, _, _, d, _) -> d) cells)
  in
  let all_identical = List.for_all (fun (_, _, _, _, _, _, ok) -> ok) cells in
  Printf.printf
    "mean occupancy gain %.3fx, mean energy factor %.3fx, demotion applied \
     on %d/%d workloads; results %s\n"
    mean_gain mean_factor demotions (List.length cells)
    (if all_identical then "identical" else "DIFFER");
  let oc = open_out (artifact_path "BENCH_regdem.json") in
  Printf.fprintf oc
    "{\n  \"bench\": \"regdem\",\n  \"config\": %S,\n  \
     \"mean_occupancy_gain\": %.3f,\n  \"mean_energy_factor\": %.3f,\n  \
     \"demotions\": %d,\n  \"demotion_applied\": %b,\n  \
     \"all_identical\": %b,\n  \"cells\": [\n"
    (if quick then "quick" else "full")
    mean_gain mean_factor demotions (demotions > 0) all_identical;
  List.iteri
    (fun i (w, gain, red, traffic, factor, demoted, ok) ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"occupancy_gain\": %.3f, \
         \"cycle_reduction_pct\": %.2f, \"spill_traffic\": %d, \
         \"energy_factor\": %.3f, \"demoted\": %b, \"identical\": %b}%s\n"
        w gain red traffic factor demoted ok
        (if i = List.length cells - 1 then "" else ","))
    cells;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d cells)\n" (artifact_path "BENCH_regdem.json")
    (List.length cells);
  if not all_identical then exit 1

(* Telemetry overhead benchmark: every suite cell simulated four times —
   sink off, sink on (fast-forward), sink on (brute force), sink off again.
   The interleaved off runs bound timer drift; overhead is the on time
   against their mean. All four fingerprints must agree: the off/off pair
   shows the disabled sink perturbs nothing, and the on-ff/on-bf pair is
   the fast-forward equivalence suite re-run with telemetry enabled — the
   probe's issue-anchored hooks must not disturb cycle skipping; they are
   the only gate. Results land in BENCH_telemetry_overhead.json for the
   CI artifact. *)
let telemetry_bench ~quick cfg =
  let module Runner = Regmutex.Runner in
  let module Technique = Regmutex.Technique in
  let techniques = Technique.all in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  Printf.printf "%-16s %-16s %9s %9s %9s %9s  %s\n" "workload" "technique"
    "off (s)" "on (s)" "on/off" "off/off" "results";
  let cells =
    List.concat_map
      (fun spec ->
        let arch = Experiments.Exp_config.eval_arch cfg spec in
        let kernel = Experiments.Exp_config.kernel_of cfg spec in
        List.map
          (fun technique ->
            let off1_t, off1 =
              time (fun () -> Runner.execute arch technique kernel)
            in
            let on_t, on_ff =
              time (fun () ->
                  Runner.execute ~telemetry:(Telemetry.Sink.create ()) arch
                    technique kernel)
            in
            let _, on_bf =
              time (fun () ->
                  Runner.execute ~fast_forward:false
                    ~telemetry:(Telemetry.Sink.create ()) arch technique kernel)
            in
            let off2_t, off2 =
              time (fun () -> Runner.execute arch technique kernel)
            in
            let fp = Runner.fingerprint in
            let identical =
              String.equal (fp off1) (fp on_ff)
              && String.equal (fp on_ff) (fp on_bf)
              && String.equal (fp off1) (fp off2)
            in
            let off_t = (off1_t +. off2_t) /. 2. in
            let overhead_pct = ((on_t /. Float.max off_t 1e-9) -. 1.) *. 100. in
            let off_delta_pct =
              Float.abs (off2_t -. off1_t) /. Float.max off_t 1e-9 *. 100.
            in
            Printf.printf "%-16s %-16s %9.3f %9.3f %+8.1f%% %8.1f%%  %s\n%!"
              spec.Workloads.Spec.name (Technique.name technique) off_t on_t
              overhead_pct off_delta_pct
              (if identical then "identical" else "DIFFER");
            (spec.Workloads.Spec.name, Technique.name technique, off_t, on_t,
             overhead_pct, off_delta_pct, identical))
          techniques)
      (Workloads.Registry.all @ Workloads.Registry.latency_bound)
  in
  let total_off =
    List.fold_left (fun a (_, _, o, _, _, _, _) -> a +. o) 0. cells
  in
  let total_on =
    List.fold_left (fun a (_, _, _, o, _, _, _) -> a +. o) 0. cells
  in
  (* The aggregate: total sink-on time over the mean sink-off time,
     summed across the suite (per-cell ratios are noisy on
     sub-millisecond runs). It is recorded, not gated: the bench fails
     only when the fingerprints differ. *)
  let overhead_pct = ((total_on /. Float.max total_off 1e-9) -. 1.) *. 100. in
  let all_identical =
    List.for_all (fun (_, _, _, _, _, _, ok) -> ok) cells
  in
  Printf.printf "aggregate overhead: %+.2f%%; results %s\n" overhead_pct
    (if all_identical then "identical (0 measurable overhead off)"
     else "DIFFER");
  let oc = open_out (artifact_path "BENCH_telemetry_overhead.json") in
  Printf.fprintf oc
    "{\n  \"bench\": \"telemetry_overhead\",\n  \"config\": %S,\n  \
     \"overhead_on_pct\": %.3f,\n  \"all_identical\": %b,\n  \"cells\": [\n"
    (if quick then "quick" else "full")
    overhead_pct all_identical;
  List.iteri
    (fun i (w, t, offt, ont, ov, noise, ok) ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"technique\": %S, \"off_s\": %.4f, \
         \"on_s\": %.4f, \"overhead_pct\": %.2f, \"off_delta_pct\": %.2f, \
         \"identical\": %b}%s\n"
        w t offt ont ov noise ok
        (if i = List.length cells - 1 then "" else ","))
    cells;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d cells)\n"
    (artifact_path "BENCH_telemetry_overhead.json")
    (List.length cells);
  if not all_identical then exit 1

(* SIMT benchmark: the per-lane execution model against the warp-uniform
   one. Two cell sets. (1) Warp-uniform cells — the Table I registry (the
   Figure 1 set under `quick`) under every technique: each cell is run
   five ways (fast-forward/brute-force x uniform/--simt, plus --simt
   fast-forward with every warp lane-resolved from launch) and all five
   run fingerprints must be bit-identical, the subsystem's core contract
   (a warp-uniform program must not observe the lane dimension; the
   lane-resolved run is the all-lanes reference for the collapsed path).
   No warp of these cells reads %laneid, so none may leave the collapsed
   state: a nonzero [lane_expansions] fails the bench. The SIMT
   wall-time cost is the brute-force simt/uniform ratio, summarised as a
   geomean overhead factor (lower is better — it is the price every
   --simt run pays over the warp-uniform model).
   (2) Divergent cells — the divergent registry under --simt, where the
   two execution models legitimately disagree, so only ff/bf identity is
   asserted; per-lane occupancy and divergent-branch counts are recorded
   and the baseline cell must actually diverge (else the kernel has
   stopped exercising the reconvergence stack). Results land in
   BENCH_simt.json for the CI artifact. *)
let simt_bench ~quick cfg =
  let module Runner = Regmutex.Runner in
  let module Technique = Regmutex.Technique in
  let module Stats = Gpu_sim.Stats in
  let simt = { Technique.default_options with Technique.simt = true } in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let config_name = if quick then "quick" else "full" in
  let techniques = Technique.all in
  let specs =
    if quick then Workloads.Registry.figure1 else Workloads.Registry.all
  in
  Printf.printf "%-16s %-16s %12s %12s %9s %10s  %s\n" "workload" "technique"
    "uniform (s)" "simt (s)" "overhead" "expansions" "fingerprints";
  let cells =
    List.concat_map
      (fun spec ->
        let arch = Experiments.Exp_config.eval_arch cfg spec in
        let kernel = Experiments.Exp_config.kernel_of cfg spec in
        let wname = spec.Workloads.Spec.name in
        List.map
          (fun technique ->
            let run ?options ?lane_resolved fast_forward =
              time (fun () ->
                  Runner.execute ?options ?lane_resolved ~fast_forward arch
                    technique kernel)
            in
            let _, u_ff = run true in
            let ub_t, u_bf = run false in
            let _, s_ff = run ~options:simt true in
            let sb_t, s_bf = run ~options:simt false in
            let _, l_ff = run ~options:simt ~lane_resolved:true true in
            let fp = Runner.fingerprint u_ff in
            let identical =
              List.for_all
                (fun r -> String.equal (Runner.fingerprint r) fp)
                [ u_bf; s_ff; s_bf; l_ff ]
            in
            let expansions = s_ff.Runner.stats.Stats.lane_expansions in
            let overhead = sb_t /. Float.max ub_t 1e-9 in
            let tname = Technique.name technique in
            Printf.printf "%-16s %-16s %12.3f %12.3f %8.2fx %10d  %s\n%!" wname
              tname ub_t sb_t overhead expansions
              (if identical then "identical" else "DIFFER");
            (wname, tname, ub_t, sb_t, overhead, expansions, fp, identical))
          techniques)
      specs
  in
  let geomean = function
    | [] -> None
    | l ->
        Some
          (exp
             (List.fold_left (fun a s -> a +. log s) 0. l
             /. float_of_int (List.length l)))
  in
  let overhead_factor =
    geomean (List.map (fun (_, _, _, _, o, _, _, _) -> o) cells)
  in
  let all_identical =
    List.for_all (fun (_, _, _, _, _, _, _, ok) -> ok) cells
  in
  let never_expanded =
    List.for_all (fun (_, _, _, _, _, e, _, _) -> e = 0) cells
  in
  (* Divergent cells: the models differ by design, so only ff/bf identity
     under --simt is asserted. Lane occupancy is active/(active+off). *)
  let divergent_cells =
    List.concat_map
      (fun spec ->
        let arch = Experiments.Exp_config.eval_arch cfg spec in
        let kernel = Experiments.Exp_config.kernel_of cfg spec in
        let wname = spec.Workloads.Spec.name in
        List.map
          (fun technique ->
            let ff =
              Runner.execute ~options:simt ~fast_forward:true arch technique
                kernel
            in
            let bf =
              Runner.execute ~options:simt ~fast_forward:false arch technique
                kernel
            in
            let identical =
              String.equal (Runner.fingerprint ff) (Runner.fingerprint bf)
            in
            let st = ff.Runner.stats in
            let active = float_of_int st.Stats.active_lane_cycles
            and off = float_of_int st.Stats.predicated_lane_cycles in
            let lane_occ =
              if active +. off > 0. then active /. (active +. off) else 1.
            in
            let tname = Technique.name technique in
            Printf.printf
              "%-16s %-16s lane-occ %5.1f%%  divergent-branches %6d  %s\n%!"
              wname tname (100. *. lane_occ) st.Stats.divergent_branches
              (if identical then "identical" else "DIFFER");
            (wname, tname, lane_occ, st.Stats.divergent_branches, identical))
          techniques)
      Workloads.Registry.divergent
  in
  let divergent_identical =
    List.for_all (fun (_, _, _, _, ok) -> ok) divergent_cells
  in
  let divergence_exercised =
    List.exists
      (fun (_, t, _, db, _) -> t = "baseline" && db > 0)
      divergent_cells
  in
  let pp_factor = function Some g -> Printf.sprintf "%.2fx" g | None -> "-" in
  Printf.printf
    "simt overhead (geomean, brute-force): %s; warp-uniform \
     fingerprints %s; warp-uniform cells %s; divergent ff/bf %s; \
     divergence %s\n"
    (pp_factor overhead_factor)
    (if all_identical then "identical" else "DIFFER")
    (if never_expanded then "never expanded" else "EXPANDED")
    (if divergent_identical then "identical" else "DIFFER")
    (if divergence_exercised then "exercised" else "NOT EXERCISED");
  let oc = open_out (artifact_path "BENCH_simt.json") in
  Printf.fprintf oc
    "{\n  \"bench\": \"simt\",\n  \"config\": %S,\n  \
     \"overhead_factor\": %s,\n  \"all_identical\": %b,\n  \
     \"never_expanded\": %b,\n  \
     \"divergent_identical\": %b,\n  \"divergence_exercised\": %b,\n  \
     \"cells\": [\n"
    config_name
    (match overhead_factor with
    | Some g -> Printf.sprintf "%.3f" g
    | None -> "null")
    all_identical never_expanded divergent_identical divergence_exercised;
  List.iteri
    (fun i (w, t, ub, sb, o, e, fp, ok) ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"technique\": %S, \"uniform_brute_s\": \
         %.4f, \"simt_brute_s\": %.4f, \"overhead\": %.3f, \
         \"lane_expansions\": %d, \"fingerprint\": %S, \"identical\": %b}%s\n"
        w t ub sb o e fp ok
        (if i = List.length cells - 1 then "" else ","))
    cells;
  Printf.fprintf oc "  ],\n  \"divergent_cells\": [\n";
  List.iteri
    (fun i (w, t, lo, db, ok) ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"technique\": %S, \"lane_occupancy\": %.4f, \
         \"divergent_branches\": %d, \"identical\": %b}%s\n"
        w t lo db ok
        (if i = List.length divergent_cells - 1 then "" else ","))
    divergent_cells;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d uniform cells, %d divergent cells)\n"
    (artifact_path "BENCH_simt.json")
    (List.length cells)
    (List.length divergent_cells);
  if
    not
      (all_identical && never_expanded && divergent_identical
     && divergence_exercised)
  then exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "quick" args in
  let args = List.filter (fun a -> a <> "quick") args in
  let rec split_baseline acc = function
    | "--baseline" :: path :: rest -> (Some path, List.rev_append acc rest)
    | a :: rest -> split_baseline (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let baseline, args = split_baseline [] args in
  let cfg =
    if quick then Experiments.Exp_config.quick else Experiments.Exp_config.default
  in
  match args with
  | [ "perf" ] -> Perf.run ()
  | [ "sweep" ] -> sweep_bench cfg
  | [ "cycles" ] -> cycles_bench ~quick cfg
  | [ "soa" ] -> soa_bench ~quick ?baseline cfg
  | [ "regdem" ] -> regdem_bench ~quick cfg
  | [ "telemetry" ] -> telemetry_bench ~quick cfg
  | [ "simt" ] -> simt_bench ~quick cfg
  | [ "report" ] | [ "report"; "--check" ] ->
      let module R = Experiments.Report in
      let check = args <> [ "report" ] in
      let root =
        match R.find_repo_root () with Some r -> r | None -> Sys.getcwd ()
      in
      let snap = R.scan ~dir:root in
      R.pp_snapshot Format.std_formatter snap;
      let trajectory =
        Filename.concat root (Filename.concat "bench" "trajectory.json")
      in
      (match R.load_baseline trajectory with
      | Error e ->
          Format.printf "@.no baseline: %s@." e;
          if check then exit 1
      | Ok base ->
          let o = R.check snap base in
          R.pp_outcome Format.std_formatter o;
          if check && o.R.failures <> [] then exit 1)
  | [] ->
      List.iter (fun (e : Suite.entry) -> run_experiment cfg e.Suite.name) Suite.all
  | names -> List.iter (run_experiment cfg) names
