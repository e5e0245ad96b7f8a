(* Spans recorded by the benchmark around its own calls into each layer.
   Spans stay in memory until the run ends; nothing is written while
   work is being timed. *)

type t = {
  id : int;
  name : string;
  op : int;  (** op index the span belongs to; -1 outside timed ops *)
  parent : int;  (** enclosing span id; -1 for a root *)
  t0 : float;
  t1 : float;
  phases : (string * float * int) list;
      (** [Telemetry.Profile] phases that ran inside the span: name,
          seconds, calls *)
}

let on = ref false
let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_op = ref (-1)

(* Test hook: stretch every span with this name by the given fraction of
   its own duration, inside the span. *)
let inject : (string * float) option ref = ref None

let reset () =
  recorded := [];
  stack := [];
  next_id := 0;
  current_op := -1

let spans () = List.rev !recorded

let busy_wait seconds =
  let t_end = Unix.gettimeofday () +. seconds in
  while Unix.gettimeofday () < t_end do
    ()
  done

let phase_delta before after =
  List.filter_map
    (fun (name, ns, calls) ->
      let ns0, calls0 =
        match List.find_opt (fun (n, _, _) -> n = name) before with
        | Some (_, ns0, c0) -> (ns0, c0)
        | None -> (0, 0)
      in
      if calls > calls0 then
        Some (name, float_of_int (ns - ns0) /. 1e9, calls - calls0)
      else None)
    after

(* [with_span ?profile name f] runs [f ()] inside a span. With
   [~profile:true] the span also records how much time each
   [Telemetry.Profile] phase accumulated while it was open. *)
let with_span ?(profile = false) name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let before = if profile then Telemetry.Profile.report () else [] in
    let t0 = Unix.gettimeofday () in
    let finish () =
      (match !inject with
      | Some (n, frac) when n = name ->
          busy_wait ((Unix.gettimeofday () -. t0) *. frac)
      | _ -> ());
      let t1 = Unix.gettimeofday () in
      let phases =
        if profile then phase_delta before (Telemetry.Profile.report ()) else []
      in
      stack := List.tl !stack;
      recorded :=
        { id; name; op = !current_op; parent; t0; t1; phases } :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let duration s = s.t1 -. s.t0

(* Self time: each span's duration minus the time its child spans
   cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt children s.id)))
    spans

(* Chrome trace-event JSON: one complete ("X") event per span, op and
   parent ids and profile phases in [args]. *)
let chrome_trace spans =
  let open Telemetry.Json_check in
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans
  in
  let us t = Num (Float.round ((t -. origin) *. 1e6)) in
  let event s =
    Obj
      [ ("name", Str s.name);
        ("ph", Str "X");
        ("pid", Num 1.);
        ("tid", Num 1.);
        ("ts", us s.t0);
        ("dur", Num (Float.round (duration s *. 1e6)));
        ( "args",
          Obj
            ([ ("id", Num (float_of_int s.id));
               ("op", Num (float_of_int s.op));
               ("parent", Num (float_of_int s.parent)) ]
            @ List.map
                (fun (name, secs, calls) ->
                  ( name,
                    Obj [ ("ms", Num (secs *. 1e3)); ("calls", Num (float_of_int calls)) ]
                  ))
                s.phases) ) ]
  in
  to_string
    (Obj
       [ ( "traceEvents",
           List
             (Obj
                [ ("name", Str "process_name");
                  ("ph", Str "M");
                  ("pid", Num 1.);
                  ("args", Obj [ ("name", Str "e2e") ]) ]
             :: List.map event spans) ) ])
