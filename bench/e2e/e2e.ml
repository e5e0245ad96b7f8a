(* End-to-end benchmark of the reproduction. See README.md.

     e2e --workload W --seed N --seconds T --trace 0|1   one run
     e2e [--seed S] [--rounds R] [--seconds T] [--out FILE]
                               R interleaved rounds of every workload
     e2e trace [--seed S] [--seconds T]   one traced run of every workload
     e2e compare PARENT.json CHANGE.json [--bench BENCHMARK.json] *)

open E2e_bench
module J = Telemetry.Json_check

let usage () =
  prerr_endline
    "usage: e2e --workload W --seed N --seconds T --trace 0|1\n\
    \       e2e [--seed S] [--rounds R] [--seconds T] [--out FILE]\n\
    \       e2e trace [--seed S] [--seconds T]\n\
    \       e2e compare PARENT.json CHANGE.json [--bench BENCHMARK.json]";
  exit 2

(* [--key value] pairs and positional arguments. *)
let parse_args args =
  let rec go opts pos = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: opts) pos rest
    | [ k ] when String.starts_with ~prefix:"--" k -> usage ()
    | a :: rest -> go opts (a :: pos) rest
    | [] -> (opts, List.rev pos)
  in
  go [] [] args

let int_opt opts key default =
  match List.assoc_opt key opts with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let workload_names = List.map (fun w -> w.Work.name) Work.all

(* BENCHMARK.json's run_seconds. *)
let default_seconds = 10

(* --- child runs --------------------------------------------------------------- *)

(* Run one workload in a fresh process; returns its detail and result
   objects. *)
let child ~workload ~seed ~seconds ~trace =
  let args =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; string_of_int seconds; "--trace"; (if trace then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "e2e: %s run (seed %d) failed" workload seed));
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  match List.rev lines with
  | result :: detail :: rest -> (J.parse detail, J.parse result, List.rev rest)
  | _ -> failwith (Printf.sprintf "e2e: %s run printed no result" workload)

let field k = function J.Obj l -> List.assoc_opt k l | _ -> None
let num k j = match field k j with Some (J.Num f) -> f | _ -> nan
let str k j = match field k j with Some (J.Str s) -> s | _ -> ""

let metric_values result =
  match field "metrics" result with
  | Some (J.Obj l) -> List.map (fun (k, v) -> (k, num "value" v)) l
  | _ -> []

let metric name run =
  Option.value ~default:nan (List.assoc_opt name (metric_values run))

(* --- rounds ---------------------------------------------------------------------- *)

let summarize runs =
  List.iter
    (fun w ->
      let mine = List.filter (fun r -> str "workload" r = w) runs in
      Printf.printf "\n%s (%d runs)\n" w (List.length mine);
      List.iter
        (fun (m : Catalog.metric) ->
          let vs = List.map (metric m.Catalog.name) mine in
          let q1, q2, q3 = Stat.quartiles vs in
          Printf.printf "  %-14s median %12.4f  q1 %12.4f  q3 %12.4f  spread %5.1f%%  %s\n"
            m.Catalog.name q2 q1 q3 (100. *. Stat.spread vs) m.Catalog.unit_)
        Catalog.end_to_end;
      let ids = List.sort_uniq compare (List.map (str "identity") mine) in
      Printf.printf "  identity       %s\n"
        (match ids with [ d ] -> d ^ " (every run)" | l -> String.concat " " l);
      let failed = List.fold_left (fun acc r -> acc +. num "failed" r) 0. mine in
      let attempted = List.fold_left (fun acc r -> acc +. num "attempted" r) 0. mine in
      Printf.printf "  ops            %.0f attempted, %.0f failed, outputs %s\n" attempted
        failed
        (if List.for_all (fun r -> field "correct" r = Some (J.Bool true)) mine then
           "correct"
         else "INCORRECT"))
    workload_names

let rounds opts =
  let seed = int_opt opts "--seed" 0 in
  let n = int_opt opts "--rounds" 10 in
  let seconds = int_opt opts "--seconds" default_seconds in
  let out =
    match List.assoc_opt "--out" opts with
    | Some f -> f
    | None -> Filename.concat Work.scratch_dir (Printf.sprintf "rounds-%d.json" seed)
  in
  let k = List.length workload_names in
  let runs =
    List.concat_map
      (fun r ->
        (* Rotate the order each round, so no workload always runs first
           or right after the same neighbour. *)
        List.init k (fun i -> List.nth workload_names ((i + r) mod k))
        |> List.map (fun w ->
               let detail, result, _ = child ~workload:w ~seed:(seed + r) ~seconds ~trace:false in
               Printf.printf "round %d %-10s seed %d: %s\n%!" r w (seed + r)
                 (String.concat " "
                    (List.map (fun (m, v) -> Printf.sprintf "%s=%.4g" m v) (metric_values result)));
               match (detail, result) with
               | J.Obj d, J.Obj res -> J.Obj ((("round", J.Num (float_of_int r)) :: d) @ res)
               | _ -> failwith "e2e: malformed run output"))
      (List.init n Fun.id)
  in
  summarize runs;
  Work.mkdir_p (Filename.dirname out);
  Out_channel.with_open_bin out (fun oc ->
      output_string oc
        (J.to_string
           (J.Obj
              [ ("seed", J.Num (float_of_int seed));
                ("rounds", J.Num (float_of_int n));
                ("seconds", J.Num (float_of_int seconds));
                ("runs", J.List runs) ]));
      output_char oc '\n');
  Printf.printf "\nwrote %s\n" out

(* --- trace ------------------------------------------------------------------------- *)

let trace opts =
  let seed = int_opt opts "--seed" 0 in
  let seconds = int_opt opts "--seconds" default_seconds in
  List.iter
    (fun w ->
      let _, _, lines = child ~workload:w ~seed ~seconds ~trace:true in
      List.iter print_endline lines)
    workload_names

(* --- compare ------------------------------------------------------------------------ *)

let load file = J.parse (In_channel.with_open_bin file In_channel.input_all)

let bounds bench =
  match field "end_to_end" (load bench) with
  | Some (J.List l) -> List.map (fun m -> (str "name" m, num "bound" m)) l
  | _ -> failwith ("e2e: no end_to_end list in " ^ bench)

let runs_of j = match field "runs" j with Some (J.List l) -> l | _ -> []

(* A metric is better only when the change wins at least 9 of 10 paired
   rounds and the medians differ by more than the parent's IQR; worse
   when its median is past the bound; unresolved when either side's
   spread exceeds the bound and the two sets of runs overlap. *)
let verdict ~higher ~bound parent change =
  let better a b = if higher then b > a else b < a in
  let q1p, mp, q3p = Stat.quartiles (List.map snd parent) in
  let _, mc, _ = Stat.quartiles (List.map snd change) in
  let pairs =
    List.filter_map
      (fun (r, c) -> Option.map (fun p -> (p, c)) (List.assoc_opt r parent))
      change
  in
  let wins = List.length (List.filter (fun (p, c) -> better p c) pairs) in
  let worse_by = (if higher then mp -. mc else mc -. mp) /. Float.abs mp in
  let separated =
    List.for_all (fun (_, c) -> List.for_all (fun (_, p) -> better p c) parent) change
  in
  let spread =
    Float.max (Stat.spread (List.map snd parent)) (Stat.spread (List.map snd change))
  in
  if spread > bound && not separated then "unresolved"
  else if
    pairs <> []
    && 10 * wins >= 9 * List.length pairs
    && Float.abs (mc -. mp) > q3p -. q1p
  then "better"
  else if worse_by > bound then "WORSE"
  else "same"

let compare_files opts parent_file change_file =
  let bounds = bounds (Option.value ~default:"BENCHMARK.json" (List.assoc_opt "--bench" opts)) in
  let parent = runs_of (load parent_file) and change = runs_of (load change_file) in
  let worse = ref false in
  List.iter
    (fun w ->
      let of_w runs = List.filter (fun r -> str "workload" r = w) runs in
      let p = of_w parent and c = of_w change in
      Printf.printf "\n%s (%d vs %d runs)\n" w (List.length p) (List.length c);
      List.iter
        (fun (m : Catalog.metric) ->
          let values runs =
            List.map (fun r -> (int_of_float (num "round" r), metric m.Catalog.name r)) runs
          in
          let vp = values p and vc = values c in
          let bound = Option.value ~default:0. (List.assoc_opt m.Catalog.name bounds) in
          let v = verdict ~higher:m.Catalog.higher_is_better ~bound vp vc in
          if v = "WORSE" then worse := true;
          let q l = Stat.quartiles (List.map snd l) in
          let q1p, mp, q3p = q vp and q1c, mc, q3c = q vc in
          Printf.printf
            "  %-14s parent %11.4f [%11.4f %11.4f]  change %11.4f [%11.4f %11.4f]  %+6.1f%%  %s\n"
            m.Catalog.name mp q1p q3p mc q1c q3c
            (100. *. (mc -. mp) /. Float.abs mp)
            v)
        Catalog.end_to_end;
      (* Counts and identity digests compare exactly, round by round. *)
      let exact key =
        let by_round runs = List.map (fun r -> (num "round" r, field key r)) runs in
        let bp = by_round p in
        List.for_all
          (fun (r, x) -> match List.assoc_opt r bp with Some y -> x = y | None -> true)
          (by_round c)
      in
      List.iter
        (fun key ->
          let same = exact key in
          if not same then worse := true;
          Printf.printf "  %-14s %s\n" key (if same then "identical" else "DIFFER"))
        [ "identity"; "failed"; "correct" ])
    workload_names;
  if !worse then exit 1

let () =
  Bench.setup_child ();
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> (
      match parse_args rest with
      | opts, [ a; b ] -> compare_files opts a b
      | _ -> usage ())
  | "trace" :: rest -> (
      match parse_args rest with opts, [] -> trace opts | _ -> usage ())
  | args -> (
      match parse_args args with
      | opts, [] when List.mem_assoc "--workload" opts -> (
          match Work.find (List.assoc "--workload" opts) with
          | None ->
              Printf.eprintf "e2e: unknown workload (expected %s)\n"
                (String.concat ", " workload_names);
              exit 2
          | Some workload ->
              let trace =
                match List.assoc_opt "--trace" opts with
                | None | Some "0" -> false
                | Some "1" -> true
                | Some _ -> usage ()
              in
              Bench.print
                (Bench.run ~workload ~seed:(int_opt opts "--seed" 0)
                   ~seconds:(float_of_int (int_opt opts "--seconds" default_seconds))
                   ~trace ()))
      | opts, [] -> rounds opts
      | _ -> usage ())
