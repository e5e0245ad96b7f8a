module Outcome = Regmutex.Outcome
module Technique = Regmutex.Technique

type row = {
  app : string;
  by_es : (int * (float * float) option) list;
  heuristic_es : int option;
}

let sample cfg spec es =
  let run = Engine.run ~es_override:es cfg ~arch:cfg.Exp_config.arch Technique.Regmutex spec in
  match run.Outcome.choice with
  | None -> None
  | Some _ -> Some (run.Outcome.theoretical_occupancy, run.Outcome.acquire_ratio)

let row_of cfg spec =
  let auto = Engine.run cfg ~arch:cfg.Exp_config.arch Technique.Regmutex spec in
  {
    app = spec.Workloads.Spec.name;
    by_es = List.map (fun es -> (es, sample cfg spec es)) Fig10.es_values;
    heuristic_es =
      Option.map
        (fun c -> c.Regmutex.Es_heuristic.es)
        auto.Outcome.choice;
  }

let rows cfg =
  let arch = cfg.Exp_config.arch in
  Engine.prefetch cfg
    (List.concat_map
       (fun spec ->
         Engine.cell ~arch Technique.Regmutex spec
         :: List.map
              (fun es -> Engine.cell ~es_override:es ~arch Technique.Regmutex spec)
              Fig10.es_values)
       Workloads.Registry.occupancy_limited);
  List.map (row_of cfg) Workloads.Registry.occupancy_limited

let print_part rows ~title ~select =
  print_endline title;
  let cell heuristic_es (es, v) =
    let mark = if heuristic_es = Some es then "*" else "" in
    match v with None -> "-" | Some pair -> Table.occ (select pair) ^ mark
  in
  print_endline
    (Table.render
       ~columns:
         (("app", Table.Left)
         :: List.map (fun es -> (Printf.sprintf "|Es|=%d" es, Table.Right)) Fig10.es_values)
       (List.map (fun r -> r.app :: List.map (cell r.heuristic_es) r.by_es) rows))

let print cfg =
  let rows = rows cfg in
  print_part rows ~title:"Figure 11(a): theoretical occupancy vs |Es| (* = heuristic pick)"
    ~select:fst;
  print_newline ();
  print_part rows ~title:"Figure 11(b): successful acquires vs |Es| (* = heuristic pick)"
    ~select:snd
