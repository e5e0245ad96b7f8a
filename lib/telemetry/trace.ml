type kind = Span | Instant | Counter

type record = {
  kind : kind;
  ts : int;
  dur : int;
  pid : int;
  tid : int;
  name : string;
  arg : int option;
}

let no_arg = min_int

(* Structure-of-arrays ring. [next] is the write cursor; once [filled]
   the slot at [next] is the oldest record and gets overwritten. The
   arrays start small and double up to [cap] as records arrive: a
   short run never pays for the full window, which keeps trace creation
   cheap enough to attach per-simulation. Growth happens only before
   the first wrap (records are then contiguous in [0, next)), so the
   drop-oldest semantics are identical to a preallocated ring. *)
type t = {
  cap : int;
  mutable kinds : kind array;
  mutable tss : int array;
  mutable durs : int array;
  mutable pids : int array;
  mutable tids : int array;
  mutable names : int array;  (* interned ids *)
  mutable args : int array;   (* [no_arg] when absent *)
  mutable next : int;
  mutable filled : bool;
  mutable dropped : int;
  intern_tbl : (string, int) Hashtbl.t;
  mutable intern_rev : string array;  (* id -> string, grown on demand *)
  mutable n_interned : int;
  proc_names : (int, string) Hashtbl.t;
  thread_names : (int * int, string) Hashtbl.t;
}

let initial_alloc = 4096

let create ?(capacity = 1_000_000) () =
  let cap = max 1 capacity in
  let alloc = min cap initial_alloc in
  {
    cap;
    kinds = Array.make alloc Span;
    tss = Array.make alloc 0;
    durs = Array.make alloc 0;
    pids = Array.make alloc 0;
    tids = Array.make alloc 0;
    names = Array.make alloc 0;
    args = Array.make alloc no_arg;
    next = 0;
    filled = false;
    dropped = 0;
    intern_tbl = Hashtbl.create 64;
    intern_rev = Array.make 64 "";
    n_interned = 0;
    proc_names = Hashtbl.create 8;
    thread_names = Hashtbl.create 64;
  }

let capacity t = t.cap

let grow t =
  let cur = Array.length t.tss in
  let bigger = min t.cap (2 * cur) in
  let g fill a =
    let b = Array.make bigger fill in
    Array.blit a 0 b 0 cur;
    b
  in
  t.kinds <- g Span t.kinds;
  t.tss <- g 0 t.tss;
  t.durs <- g 0 t.durs;
  t.pids <- g 0 t.pids;
  t.tids <- g 0 t.tids;
  t.names <- g 0 t.names;
  t.args <- g no_arg t.args

let intern t s =
  match Hashtbl.find_opt t.intern_tbl s with
  | Some id -> id
  | None ->
      let id = t.n_interned in
      if id >= Array.length t.intern_rev then begin
        let bigger = Array.make (2 * Array.length t.intern_rev) "" in
        Array.blit t.intern_rev 0 bigger 0 id;
        t.intern_rev <- bigger
      end;
      t.intern_rev.(id) <- s;
      t.n_interned <- id + 1;
      Hashtbl.add t.intern_tbl s id;
      id

let push t kind ~ts ~dur ~pid ~tid ~name ~arg =
  if t.next = Array.length t.tss && t.next < t.cap then grow t;
  let i = t.next in
  if t.filled then t.dropped <- t.dropped + 1;
  t.kinds.(i) <- kind;
  t.tss.(i) <- ts;
  t.durs.(i) <- dur;
  t.pids.(i) <- pid;
  t.tids.(i) <- tid;
  t.names.(i) <- name;
  t.args.(i) <- arg;
  let j = i + 1 in
  if j = t.cap then begin
    t.next <- 0;
    t.filled <- true
  end
  else t.next <- j

let span t ~ts ~dur ~pid ~tid ~name ~arg = push t Span ~ts ~dur ~pid ~tid ~name ~arg
let instant t ~ts ~pid ~tid ~name ~arg = push t Instant ~ts ~dur:0 ~pid ~tid ~name ~arg
let counter t ~ts ~pid ~name ~value = push t Counter ~ts ~dur:0 ~pid ~tid:0 ~name ~arg:value

let length t = if t.filled then t.cap else t.next
let dropped t = t.dropped
let recorded t = length t + t.dropped

let iter t f =
  let n = length t in
  let start = if t.filled then t.next else 0 in
  for k = 0 to n - 1 do
    let i = (start + k) mod t.cap in
    f
      {
        kind = t.kinds.(i);
        ts = t.tss.(i);
        dur = t.durs.(i);
        pid = t.pids.(i);
        tid = t.tids.(i);
        name = t.intern_rev.(t.names.(i));
        arg = (if t.args.(i) = no_arg then None else Some t.args.(i));
      }
  done

let set_process_name t ~pid name = Hashtbl.replace t.proc_names pid name
let set_thread_name t ~pid ~tid name = Hashtbl.replace t.thread_names (pid, tid) name

(* --- Chrome trace-event export ----------------------------------------- *)

let json_string ppf s =
  Format.pp_print_char ppf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Format.pp_print_string ppf "\\\""
      | '\\' -> Format.pp_print_string ppf "\\\\"
      | '\n' -> Format.pp_print_string ppf "\\n"
      | '\t' -> Format.pp_print_string ppf "\\t"
      | c when Char.code c < 0x20 -> Format.fprintf ppf "\\u%04x" (Char.code c)
      | c -> Format.pp_print_char ppf c)
    s;
  Format.pp_print_char ppf '"'

let export_chrome ppf t =
  let first = ref true in
  let sep () = if !first then first := false else Format.fprintf ppf ",@," in
  Format.fprintf ppf "@[<v 1>{@,\"traceEvents\": @[<v 1>[@,";
  (* Metadata first so viewers label tracks before any event references them. *)
  let procs = Hashtbl.fold (fun pid name acc -> (pid, name) :: acc) t.proc_names [] in
  List.iter
    (fun (pid, name) ->
      sep ();
      Format.fprintf ppf
        "{\"ph\": \"M\", \"pid\": %d, \"tid\": 0, \"name\": \"process_name\", \
         \"args\": {\"name\": %a}}"
        pid json_string name)
    (List.sort compare procs);
  let threads =
    Hashtbl.fold (fun (pid, tid) name acc -> (pid, tid, name) :: acc) t.thread_names []
  in
  List.iter
    (fun (pid, tid, name) ->
      sep ();
      Format.fprintf ppf
        "{\"ph\": \"M\", \"pid\": %d, \"tid\": %d, \"name\": \"thread_name\", \
         \"args\": {\"name\": %a}}"
        pid tid json_string name)
    (List.sort compare threads);
  iter t (fun r ->
      sep ();
      match r.kind with
      | Span ->
          Format.fprintf ppf
            "{\"ph\": \"X\", \"ts\": %d, \"dur\": %d, \"pid\": %d, \"tid\": %d, \
             \"name\": %a"
            r.ts r.dur r.pid r.tid json_string r.name;
          (match r.arg with
          | Some v -> Format.fprintf ppf ", \"args\": {\"value\": %d}}" v
          | None -> Format.fprintf ppf "}")
      | Instant ->
          Format.fprintf ppf
            "{\"ph\": \"i\", \"ts\": %d, \"pid\": %d, \"tid\": %d, \"s\": \"t\", \
             \"name\": %a"
            r.ts r.pid r.tid json_string r.name;
          (match r.arg with
          | Some v -> Format.fprintf ppf ", \"args\": {\"value\": %d}}" v
          | None -> Format.fprintf ppf "}")
      | Counter ->
          let v = match r.arg with Some v -> v | None -> 0 in
          Format.fprintf ppf
            "{\"ph\": \"C\", \"ts\": %d, \"pid\": %d, \"name\": %a, \
             \"args\": {%a: %d}}"
            r.ts r.pid json_string r.name json_string r.name v);
  Format.fprintf ppf "@]@,],@,\"displayTimeUnit\": \"ns\"@]@,}@."
