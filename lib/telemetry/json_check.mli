(** Minimal JSON parser and Chrome trace-event schema check, used by
    `regmutex trace --check` and the test suite (no external JSON
    dependency is available in the toolchain). *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

(** @raise Failure with position info on malformed input. *)
val parse : string -> json

val parse_opt : string -> (json, string) result

(** Single-line rendering (no interior newlines, so one value fits on
    one line of a JSON file). [parse (to_string j)]
    recovers [j] up to float formatting: integral [Num]s print without a
    fraction, others with enough digits to round-trip. Non-finite [Num]s
    (JSON has no NaN/Infinity literal) print as [null], so the output is
    always syntactically valid JSON. *)
val to_string : json -> string

val pp : Format.formatter -> json -> unit

(** [validate_chrome_trace s] parses [s] and checks the Chrome
    trace-event schema: a top-level object with a ["traceEvents"] array
    whose every element has a one-char ["ph"] in [{X, i, C, M, B, E}], a
    numeric ["pid"], a string ["name"], a numeric ["ts"] (except
    [ph = "M"]), a numeric ["tid"] for [X]/[i]/[B]/[E], and a numeric
    ["dur"] for [X]. Returns [Ok n] with the event count, or the first
    violation. *)
val validate_chrome_trace : string -> (int, string) result
