module Arch_config = Gpu_uarch.Arch_config
module Outcome = Regmutex.Outcome
module Technique = Regmutex.Technique

type row = {
  app : string;
  scheduler : string;
  baseline_cycles : int;
  regmutex_cycles : int;
  reduction_pct : float;
  acquire_ratio : float;
}

let schedulers =
  [ ("gto", Arch_config.Gto); ("lrr", Arch_config.Lrr);
    ("two-level/8", Arch_config.Two_level 8) ]

let apps = [ "BFS"; "ParticleFilter"; "RadixSort" ]

let row_of cfg spec (label, kind) =
  let arch = { cfg.Exp_config.arch with Arch_config.scheduler = kind } in
  let baseline = Engine.run ~variant:label cfg ~arch Technique.Baseline spec in
  let rm = Engine.run ~variant:label cfg ~arch Technique.Regmutex spec in
  {
    app = spec.Workloads.Spec.name;
    scheduler = label;
    baseline_cycles = baseline.Outcome.cycles;
    regmutex_cycles = rm.Outcome.cycles;
    reduction_pct = Outcome.reduction_pct ~baseline rm;
    acquire_ratio = rm.Outcome.acquire_ratio;
  }

let rows cfg =
  let specs = List.map Workloads.Registry.find apps in
  Engine.prefetch cfg
    (List.concat_map
       (fun spec ->
         List.concat_map
           (fun (label, kind) ->
             let arch =
               { cfg.Exp_config.arch with Arch_config.scheduler = kind }
             in
             [ Engine.cell ~variant:label ~arch Technique.Baseline spec;
               Engine.cell ~variant:label ~arch Technique.Regmutex spec ])
           schedulers)
       specs);
  List.concat_map (fun spec -> List.map (row_of cfg spec) schedulers) specs

let print cfg =
  let rows = rows cfg in
  print_endline "Scheduler ablation: RegMutex under GTO / LRR / two-level";
  print_endline
    (Table.render
       ~columns:
         [ ("app", Table.Left); ("scheduler", Table.Left); ("base cyc", Table.Right);
           ("rm cyc", Table.Right); ("cyc red.", Table.Right); ("acq ok", Table.Right) ]
       (List.map
          (fun r ->
            [ r.app; r.scheduler; Table.int_cell r.baseline_cycles;
              Table.int_cell r.regmutex_cycles; Table.pct r.reduction_pct;
              Table.occ r.acquire_ratio ])
          rows))
