module Transform = Regmutex.Transform
module Technique = Regmutex.Technique
module Outcome = Regmutex.Outcome

type variant = {
  label : string;
  options : Transform.options;
}

let variants =
  let d = Transform.default_options in
  [ { label = "full pass"; options = d };
    { label = "no widening"; options = { d with Transform.widen = false } };
    { label = "no permutation"; options = { d with Transform.permute = false } };
    { label = "no mov-compaction"; options = { d with Transform.mov_compact = false } };
    { label = "injection only";
      options = { Transform.widen = true; permute = false; mov_compact = false } } ]

type row = {
  app : string;
  label : string;
  ext_fraction : float;
  acquires : int;
  movs : int;
  cycles : int;
}

let apps = [ "CUTCP"; "HeartWall" ]

let run_variant cfg spec variant =
  let arch = Exp_config.eval_arch cfg spec in
  let options = { Technique.default_options with transform = variant.options } in
  Engine.run ~options ~variant:variant.label cfg ~arch Technique.Regmutex spec

let row_of cfg spec variant =
  let run = run_variant cfg spec variant in
  let plan = run.Outcome.plan in
  {
    app = spec.Workloads.Spec.name;
    label = variant.label;
    ext_fraction =
      (match plan with Some p -> p.Outcome.ext_static_fraction | None -> 0.);
    acquires = (match plan with Some p -> p.Outcome.n_acquires | None -> 0);
    movs = (match plan with Some p -> p.Outcome.n_movs | None -> 0);
    cycles = run.Outcome.cycles;
  }

let rows cfg =
  let specs = List.map Workloads.Registry.find apps in
  Engine.prefetch cfg
    (List.concat_map
       (fun spec ->
         List.map
           (fun variant ->
             let arch = Exp_config.eval_arch cfg spec in
             let options =
               { Technique.default_options with transform = variant.options }
             in
             Engine.cell ~options ~variant:variant.label ~arch Technique.Regmutex
               spec)
           variants)
       specs);
  List.concat_map (fun spec -> List.map (row_of cfg spec) variants) specs

let print cfg =
  let rows = rows cfg in
  print_endline "Ablation: compiler-pass variants (RegMutex, evaluation arch)";
  print_endline
    (Table.render
       ~columns:
         [ ("app", Table.Left); ("variant", Table.Left); ("ext frac", Table.Right);
           ("acquires", Table.Right); ("movs", Table.Right); ("cycles", Table.Right) ]
       (List.map
          (fun r ->
            [ r.app; r.label; Table.occ r.ext_fraction; Table.int_cell r.acquires;
              Table.int_cell r.movs; Table.int_cell r.cycles ])
          rows))
