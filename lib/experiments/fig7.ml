module Outcome = Regmutex.Outcome
module Technique = Regmutex.Technique

type row = {
  app : string;
  baseline_cycles : int;
  regmutex_cycles : int;
  reduction_pct : float;
  occ_before : float;
  occ_after : float;
  sections : int;
  acquire_ratio : float;
}

let row_of cfg spec =
  let arch = cfg.Exp_config.arch in
  let baseline = Engine.run cfg ~arch Technique.Baseline spec in
  let rm = Engine.run cfg ~arch Technique.Regmutex spec in
  {
    app = spec.Workloads.Spec.name;
    baseline_cycles = baseline.Outcome.cycles;
    regmutex_cycles = rm.Outcome.cycles;
    reduction_pct = Outcome.reduction_pct ~baseline rm;
    occ_before = baseline.Outcome.theoretical_occupancy;
    occ_after = rm.Outcome.theoretical_occupancy;
    sections = rm.Outcome.srp_sections;
    acquire_ratio = rm.Outcome.acquire_ratio;
  }

let rows cfg =
  let arch = cfg.Exp_config.arch in
  Engine.prefetch cfg
    (List.concat_map
       (fun spec ->
         [ Engine.cell ~arch Technique.Baseline spec;
           Engine.cell ~arch Technique.Regmutex spec ])
       Workloads.Registry.occupancy_limited);
  List.map (row_of cfg) Workloads.Registry.occupancy_limited

let mean_reduction rows = Table.mean (List.map (fun r -> r.reduction_pct) rows)

let print cfg =
  let rows = rows cfg in
  print_endline "Figure 7: RegMutex on register-occupancy-limited kernels (baseline arch)";
  print_endline
    (Table.render
       ~columns:
         [ ("app", Table.Left); ("base cyc", Table.Right); ("rm cyc", Table.Right);
           ("cyc red.", Table.Right); ("occ init", Table.Right);
           ("occ rm", Table.Right); ("SRP", Table.Right); ("acq ok", Table.Right) ]
       (List.map
          (fun r ->
            [ r.app; Table.int_cell r.baseline_cycles;
              Table.int_cell r.regmutex_cycles; Table.pct r.reduction_pct;
              Table.occ r.occ_before; Table.occ r.occ_after;
              Table.int_cell r.sections; Table.occ r.acquire_ratio ])
          rows));
  Printf.printf "mean cycle reduction: %s (paper: ~13%%, best BFS ~23%%)\n"
    (Table.pct (mean_reduction rows))
