type counter = {
  c_name : string;
  c_help : string;
  mutable c_value : int;
}

type gauge = {
  g_name : string;
  g_help : string;
  mutable g_value : float;
}

type histogram = {
  h_name : string;
  h_help : string;
  bounds : int array;  (* inclusive upper bounds, strictly increasing *)
  counts : int array;  (* per-bucket, overflow bucket last *)
  mutable sum : int;
  mutable total : int;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = {
  mutable order : instrument list;  (* reverse registration order *)
  index : (string, instrument) Hashtbl.t;
}

let create () = { order = []; index = Hashtbl.create 32 }

let register t name make =
  match Hashtbl.find_opt t.index name with
  | Some existing -> existing
  | None ->
      let i = make () in
      Hashtbl.add t.index name i;
      t.order <- i :: t.order;
      i

let kind_clash name = invalid_arg ("Metrics: " ^ name ^ " registered as another kind")

let counter ?(help = "") t name =
  match
    register t name (fun () ->
        Counter { c_name = name; c_help = help; c_value = 0 })
  with
  | Counter c -> c
  | Gauge _ | Histogram _ -> kind_clash name

let gauge ?(help = "") t name =
  match
    register t name (fun () ->
        Gauge { g_name = name; g_help = help; g_value = 0. })
  with
  | Gauge g -> g
  | Counter _ | Histogram _ -> kind_clash name

let histogram ?(help = "") ~buckets t name =
  if Array.length buckets = 0 then invalid_arg "Metrics.histogram: no buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing")
    buckets;
  match
    register t name (fun () ->
        Histogram
          {
            h_name = name;
            h_help = help;
            bounds = Array.copy buckets;
            counts = Array.make (Array.length buckets + 1) 0;
            sum = 0;
            total = 0;
          })
  with
  | Histogram h ->
      if h.bounds <> buckets then
        invalid_arg ("Metrics: " ^ name ^ " registered with different buckets");
      h
  | Counter _ | Gauge _ -> kind_clash name

let inc c n = c.c_value <- c.c_value + n
let set g v = g.g_value <- v

let observe h v =
  let n = Array.length h.bounds in
  let rec slot i = if i >= n || v <= h.bounds.(i) then i else slot (i + 1) in
  h.counts.(slot 0) <- h.counts.(slot 0) + 1;
  h.sum <- h.sum + v;
  h.total <- h.total + 1

let counter_value c = c.c_value
let gauge_value g = g.g_value
let histogram_counts h = Array.copy h.counts
let histogram_sum h = h.sum
let histogram_total h = h.total
let histogram_buckets h = Array.copy h.bounds

let instruments t = List.rev t.order

(* --- dumps ------------------------------------------------------------- *)

(* %h-style shortest faithful float; Prometheus accepts any decimal. *)
let pp_float ppf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Format.fprintf ppf "%.0f" v
  else Format.fprintf ppf "%.12g" v

let pp_prometheus ppf t =
  let header name help kind =
    if help <> "" then Format.fprintf ppf "# HELP %s %s@," name help;
    Format.fprintf ppf "# TYPE %s %s@," name kind
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (function
      | Counter c ->
          header c.c_name c.c_help "counter";
          Format.fprintf ppf "%s %d@," c.c_name c.c_value
      | Gauge g ->
          header g.g_name g.g_help "gauge";
          Format.fprintf ppf "%s %a@," g.g_name pp_float g.g_value
      | Histogram h ->
          header h.h_name h.h_help "histogram";
          let cum = ref 0 in
          Array.iteri
            (fun i b ->
              cum := !cum + h.counts.(i);
              Format.fprintf ppf "%s_bucket{le=\"%d\"} %d@," h.h_name b !cum)
            h.bounds;
          Format.fprintf ppf "%s_bucket{le=\"+Inf\"} %d@," h.h_name h.total;
          Format.fprintf ppf "%s_sum %d@," h.h_name h.sum;
          Format.fprintf ppf "%s_count %d@," h.h_name h.total)
    (instruments t);
  Format.fprintf ppf "@]"

let json_string ppf s =
  Format.pp_print_char ppf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Format.pp_print_string ppf "\\\""
      | '\\' -> Format.pp_print_string ppf "\\\\"
      | '\n' -> Format.pp_print_string ppf "\\n"
      | '\t' -> Format.pp_print_string ppf "\\t"
      | c when Char.code c < 0x20 ->
          Format.fprintf ppf "\\u%04x" (Char.code c)
      | c -> Format.pp_print_char ppf c)
    s;
  Format.pp_print_char ppf '"'

let pp_json ppf t =
  let sep first = if !first then first := false else Format.fprintf ppf ",@," in
  Format.fprintf ppf "@[<v 2>{@,";
  Format.fprintf ppf "@[<v 2>\"counters\": {@,";
  let first = ref true in
  List.iter
    (function
      | Counter c ->
          sep first;
          Format.fprintf ppf "%a: %d" json_string c.c_name c.c_value
      | Gauge _ | Histogram _ -> ())
    (instruments t);
  Format.fprintf ppf "@]@,},@,";
  Format.fprintf ppf "@[<v 2>\"gauges\": {@,";
  let first = ref true in
  List.iter
    (function
      | Gauge g ->
          sep first;
          Format.fprintf ppf "%a: %a" json_string g.g_name pp_float
            g.g_value
      | Counter _ | Histogram _ -> ())
    (instruments t);
  Format.fprintf ppf "@]@,},@,";
  Format.fprintf ppf "@[<v 2>\"histograms\": {@,";
  let first = ref true in
  List.iter
    (function
      | Histogram h ->
          sep first;
          Format.fprintf ppf "@[<v 2>%a: {@," json_string h.h_name;
          Format.fprintf ppf "\"buckets\": [";
          Array.iteri
            (fun i b ->
              Format.fprintf ppf "%s{\"le\": %d, \"count\": %d}"
                (if i = 0 then "" else ", ")
                b h.counts.(i))
            h.bounds;
          Format.fprintf ppf "%s{\"le\": \"+Inf\", \"count\": %d}],@,"
            (if Array.length h.bounds = 0 then "" else ", ")
            h.counts.(Array.length h.bounds);
          Format.fprintf ppf "\"sum\": %d,@,\"count\": %d@]@,}" h.sum h.total
      | Counter _ | Gauge _ -> ())
    (instruments t);
  Format.fprintf ppf "@]@,}@]@,}"
