module J = Telemetry.Json_check

type metric = {
  key : string;
  value : float;
  higher_better : bool;
  config : string;
}

type invariant = { inv_key : string; ok : bool }

type snapshot = {
  metrics : metric list;
  invariants : invariant list;
  sources : string list;
}

let find_repo_root ?start () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent
  in
  let start = match start with Some d -> d | None -> Sys.getcwd () in
  (* Relative starts would stop at "." before reaching any ancestor. *)
  let start =
    if Filename.is_relative start then Filename.concat (Sys.getcwd ()) start
    else start
  in
  up start

(* --- field accessors over Json_check values ------------------------- *)

let field obj name =
  match obj with
  | J.Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let num obj name =
  match field obj name with Some (J.Num f) -> Some f | _ -> None

let str obj name =
  match field obj name with Some (J.Str s) -> Some s | _ -> None

let boolean obj name =
  match field obj name with Some (J.Bool b) -> Some b | _ -> None

let config_of obj = Option.value (str obj "config") ~default:""

(* --- per-kind normalization ----------------------------------------- *)

(* Each extractor returns the metrics and invariants one artifact
   contributes. Keys are "<bench>.<metric>" so artifacts never collide
   and a reader can trace a number back to its file. Fields that are
   null or absent (e.g. soa_core's seed comparison when no seed
   fingerprints were committed) are simply not contributed. *)

let metric ?(higher_better = true) ~config key value =
  { key; value; higher_better; config }

let extract_cycle_skip j =
  let config = config_of j in
  let ms =
    match num j "max_speedup" with
    | Some v -> [ metric ~config "cycle_skip.max_speedup" v ]
    | None -> []
  in
  let invs =
    match boolean j "all_identical" with
    | Some ok -> [ { inv_key = "cycle_skip.all_identical"; ok } ]
    | None -> []
  in
  (ms, invs)

let extract_soa_core j =
  let config = config_of j in
  let ms =
    List.filter_map
      (fun name ->
        Option.map (fun v -> metric ~config ("soa_core." ^ name) v) (num j name))
      [ "geomean_speedup_compute"; "geomean_speedup_latency" ]
  in
  let invs =
    List.filter_map
      (fun name ->
        Option.map
          (fun ok -> { inv_key = "soa_core." ^ name; ok })
          (boolean j name))
      [ "all_identical"; "seed_identical" ]
  in
  (ms, invs)

let extract_telemetry_overhead j =
  let config = config_of j in
  let ms =
    match num j "overhead_on_pct" with
    | Some pct ->
        (* Overhead is a cost: fold it into a lower-is-better slowdown
           factor so a 0% overhead scores 1.0 and regressions divide. *)
        [
          metric ~higher_better:false ~config "telemetry_overhead.factor"
            (1. +. (pct /. 100.));
        ]
    | None -> []
  in
  let invs =
    match boolean j "all_identical" with
    | Some ok -> [ { inv_key = "telemetry_overhead.all_identical"; ok } ]
    | None -> []
  in
  (ms, invs)

let extract_regdem j =
  let config = config_of j in
  let ms =
    List.filter_map
      (fun (name, higher_better) ->
        Option.map
          (fun v -> metric ~higher_better ~config ("regdem." ^ name) v)
          (num j name))
      (* Occupancy bought is the win; the energy factor is a cost. *)
      [ ("mean_occupancy_gain", true); ("mean_energy_factor", false) ]
  in
  let invs =
    List.filter_map
      (fun name ->
        Option.map
          (fun ok -> { inv_key = "regdem." ^ name; ok })
          (boolean j name))
      [ "all_identical"; "demotion_applied" ]
  in
  (ms, invs)

let extract_simt j =
  let config = config_of j in
  let ms =
    match num j "overhead_factor" with
    | Some v ->
        (* The wall-time price of lane-resolved execution: a cost, so
           lower is better (1.0 would be a free lane dimension). *)
        [ metric ~higher_better:false ~config "simt.overhead_factor" v ]
    | None -> []
  in
  let invs =
    List.filter_map
      (fun name ->
        Option.map
          (fun ok -> { inv_key = "simt." ^ name; ok })
          (boolean j name))
      [ "all_identical"; "never_expanded"; "divergent_identical";
        "divergence_exercised" ]
  in
  (ms, invs)

let extract j =
  match str j "bench" with
  | Some "cycle_skip" -> Some (extract_cycle_skip j)
  | Some "soa_core" -> Some (extract_soa_core j)
  | Some "telemetry_overhead" -> Some (extract_telemetry_overhead j)
  | Some "regdem" -> Some (extract_regdem j)
  | Some "simt" -> Some (extract_simt j)
  | _ -> None

(* --- scan ------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scan ~dir =
  let names =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n ->
           String.length n > 6
           && String.sub n 0 6 = "BENCH_"
           && Filename.check_suffix n ".json")
    |> List.sort String.compare
  in
  let metrics, invariants, sources =
    List.fold_left
      (fun (ms, is, srcs) name ->
        let parsed =
          try J.parse_opt (read_file (Filename.concat dir name))
          with Sys_error e -> Error e
        in
        match parsed with
        | Error _ -> (ms, is, srcs)
        | Ok j -> (
            match extract j with
            | None -> (ms, is, srcs)
            | Some (m, i) -> (ms @ m, is @ i, srcs @ [ name ])))
      ([], [], []) names
  in
  { metrics; invariants; sources }

(* --- baseline persistence ------------------------------------------- *)

let load_baseline path =
  if not (Sys.file_exists path) then Error (path ^ ": no such baseline")
  else
    match J.parse_opt (read_file path) with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok j -> (
        match field j "metrics" with
        | Some (J.List rows) ->
            Ok
              (List.filter_map
                 (fun row ->
                   match (str row "key", num row "value") with
                   | Some key, Some value ->
                       Some
                         {
                           key;
                           value;
                           higher_better =
                             Option.value
                               (boolean row "higher_better")
                               ~default:true;
                           config = config_of row;
                         }
                   | _ -> None)
                 rows)
        | _ -> Error (path ^ ": missing \"metrics\" array"))

let write_baseline path snapshot =
  let row m =
    J.Obj
      [
        ("key", J.Str m.key);
        ("value", J.Num m.value);
        ("higher_better", J.Bool m.higher_better);
        ("config", J.Str m.config);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "{\n  \"comment\": \"perf baseline; refresh with: \
                        regmutex report --write-baseline\",\n";
      output_string oc
        (Printf.sprintf "  \"sources\": %s,\n"
           (J.to_string (J.List (List.map (fun s -> J.Str s) snapshot.sources))));
      output_string oc "  \"metrics\": [\n";
      List.iteri
        (fun i m ->
          output_string oc
            (Printf.sprintf "    %s%s\n" (J.to_string (row m))
               (if i = List.length snapshot.metrics - 1 then "" else ",")))
        snapshot.metrics;
      output_string oc "  ]\n}\n")

(* --- comparison ------------------------------------------------------ *)

type verdict = {
  v_key : string;
  v_config : string;
  current : float;
  baseline : float;
  ratio : float;
}

type outcome = {
  compared : verdict list;
  skipped : (string * string) list;
  geomean : float option;
  failures : string list;
}

let check ?(tolerance = 0.05) snapshot baseline =
  let floor = 1. -. tolerance in
  let compared, skipped =
    List.fold_left
      (fun (cs, sk) m ->
        match List.find_opt (fun b -> String.equal b.key m.key) baseline with
        | None -> (cs, sk @ [ (m.key, "not in baseline") ])
        | Some b when not (String.equal b.config m.config) ->
            ( cs,
              sk
              @ [
                  ( m.key,
                    Printf.sprintf "config mismatch (%s vs baseline %s)"
                      m.config b.config );
                ] )
        | Some b when b.value <= 0. || m.value <= 0. ->
            (cs, sk @ [ (m.key, "non-positive value") ])
        | Some b ->
            let ratio =
              if m.higher_better then m.value /. b.value
              else b.value /. m.value
            in
            ( cs
              @ [
                  {
                    v_key = m.key;
                    v_config = m.config;
                    current = m.value;
                    baseline = b.value;
                    ratio;
                  };
                ],
              sk ))
      ([], []) snapshot.metrics
  in
  (* A baseline key with no current metric means its artifact vanished
     (deleted, renamed, or no longer carrying the field): a gate that only
     walked the snapshot would pass it silently. *)
  let missing =
    List.filter
      (fun b ->
        not (List.exists (fun m -> String.equal m.key b.key) snapshot.metrics))
      baseline
  in
  let geomean =
    match compared with
    | [] -> None
    | vs ->
        let sum = List.fold_left (fun a v -> a +. log v.ratio) 0. vs in
        Some (exp (sum /. float_of_int (List.length vs)))
  in
  let failures =
    List.filter_map
      (fun v ->
        if v.ratio < floor then
          Some
            (Printf.sprintf "%s regressed: %.4g -> %.4g (ratio %.3f < %.3f)"
               v.v_key v.baseline v.current v.ratio floor)
        else None)
      compared
    @ (match geomean with
      | Some g when g < floor ->
          [ Printf.sprintf "geomean ratio %.3f < %.3f" g floor ]
      | _ -> [])
    @ List.map
        (fun b ->
          Printf.sprintf "%s is in the baseline but no artifact reports it"
            b.key)
        missing
    @ List.filter_map
        (fun i ->
          if i.ok then None
          else Some (Printf.sprintf "invariant %s is false" i.inv_key))
        snapshot.invariants
  in
  { compared; skipped; geomean; failures }

(* --- rendering ------------------------------------------------------- *)

let pp_snapshot ppf s =
  Format.fprintf ppf "Artifacts: %s@."
    (match s.sources with [] -> "(none)" | l -> String.concat ", " l);
  Format.fprintf ppf "@.%-40s %9s  %s  %s@." "metric" "value" "dir" "config";
  List.iter
    (fun m ->
      Format.fprintf ppf "%-40s %9.3f  %s  %s@." m.key m.value
        (if m.higher_better then "up " else "dn ")
        m.config)
    s.metrics;
  if s.invariants <> [] then begin
    Format.fprintf ppf "@.";
    List.iter
      (fun i ->
        Format.fprintf ppf "%-40s %9s@." i.inv_key
          (if i.ok then "ok" else "FALSE"))
      s.invariants
  end

let pp_outcome ppf o =
  if o.compared <> [] then begin
    Format.fprintf ppf "@.%-40s %9s %9s %7s@." "vs baseline" "base" "now"
      "ratio";
    List.iter
      (fun v ->
        Format.fprintf ppf "%-40s %9.3f %9.3f %7.3f@." v.v_key v.baseline
          v.current v.ratio)
      o.compared
  end;
  List.iter
    (fun (k, why) -> Format.fprintf ppf "skipped %-32s %s@." k why)
    o.skipped;
  (match o.geomean with
  | Some g -> Format.fprintf ppf "@.geomean ratio vs baseline: %.3f@." g
  | None -> ());
  match o.failures with
  | [] -> Format.fprintf ppf "perf check: PASS@."
  | fs ->
      Format.fprintf ppf "perf check: FAIL@.";
      List.iter (fun f -> Format.fprintf ppf "  - %s@." f) fs
