module Outcome = Regmutex.Outcome
module Technique = Regmutex.Technique

let es_values = [ 2; 4; 6; 8; 10; 12 ]

type row = {
  app : string;
  by_es : (int * float option) list;
  heuristic_es : int option;
}

let reduction_for cfg spec baseline es =
  let run = Engine.run ~es_override:es cfg ~arch:cfg.Exp_config.arch Technique.Regmutex spec in
  (* An infeasible override falls back to baseline behaviour with no
     heuristic choice recorded; report it as absent. *)
  match run.Outcome.choice with
  | None -> None
  | Some _ -> Some (Outcome.reduction_pct ~baseline run)

let row_of cfg spec =
  let arch = cfg.Exp_config.arch in
  let baseline = Engine.run cfg ~arch Technique.Baseline spec in
  let auto = Engine.run cfg ~arch Technique.Regmutex spec in
  {
    app = spec.Workloads.Spec.name;
    by_es = List.map (fun es -> (es, reduction_for cfg spec baseline es)) es_values;
    heuristic_es =
      Option.map
        (fun c -> c.Regmutex.Es_heuristic.es)
        auto.Outcome.choice;
  }

let cells cfg spec =
  let arch = cfg.Exp_config.arch in
  Engine.cell ~arch Technique.Baseline spec
  :: Engine.cell ~arch Technique.Regmutex spec
  :: List.map (fun es -> Engine.cell ~es_override:es ~arch Technique.Regmutex spec) es_values

let rows cfg =
  Engine.prefetch cfg (List.concat_map (cells cfg) Workloads.Registry.occupancy_limited);
  List.map (row_of cfg) Workloads.Registry.occupancy_limited

let cell heuristic_es (es, red) =
  let mark = if heuristic_es = Some es then "*" else "" in
  match red with None -> "-" | Some r -> Table.pct r ^ mark

let print cfg =
  let rows = rows cfg in
  print_endline "Figure 10: cycle reduction vs |Es| (* = heuristic pick)";
  print_endline
    (Table.render
       ~columns:
         (("app", Table.Left)
         :: List.map (fun es -> (Printf.sprintf "|Es|=%d" es, Table.Right)) es_values)
       (List.map
          (fun r -> r.app :: List.map (cell r.heuristic_es) r.by_es)
          rows))
