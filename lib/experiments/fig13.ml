module Outcome = Regmutex.Outcome
module Technique = Regmutex.Technique

type row = {
  app : string;
  default_ratio : float;
  paired_ratio : float;
}

let row_of cfg spec =
  let arch = Exp_config.eval_arch cfg spec in
  let default_rm = Engine.run cfg ~arch Technique.Regmutex spec in
  let paired = Engine.run cfg ~arch Technique.Regmutex_paired spec in
  {
    app = spec.Workloads.Spec.name;
    default_ratio = default_rm.Outcome.acquire_ratio;
    paired_ratio = paired.Outcome.acquire_ratio;
  }

let rows cfg =
  Engine.prefetch cfg
    (List.concat_map
       (fun spec ->
         let arch = Exp_config.eval_arch cfg spec in
         [ Engine.cell ~arch Technique.Regmutex spec;
           Engine.cell ~arch Technique.Regmutex_paired spec ])
       Workloads.Registry.all);
  List.map (row_of cfg) Workloads.Registry.all

let print cfg =
  let rows = rows cfg in
  print_endline
    "Figure 13: acquire success rate (left 8: baseline arch; right 8: half RF)";
  print_endline
    (Table.render
       ~columns:
         [ ("app", Table.Left); ("default", Table.Right); ("paired", Table.Right) ]
       (List.map
          (fun r -> [ r.app; Table.occ r.default_ratio; Table.occ r.paired_ratio ])
          rows))
