(* Json_check's printer on hostile inputs. *)

module J = Telemetry.Json_check

(* --- Json_check.to_string edge cases --------------------------------- *)

let test_json_escapes () =
  (* Every byte class the escaper must handle: quote, backslash, the
     named controls, an arbitrary low control, and 8-bit bytes (passed
     through untouched — the printer is encoding-agnostic). *)
  let hostile = "a\"b\\c\nd\te\rf\bg\012h\000i\031j\127caf\xc3\xa9" in
  let s = J.to_string (J.Str hostile) in
  Alcotest.(check bool) "no raw newline in output" true
    (not (String.contains s '\n'));
  (match J.parse s with
  | J.Str back -> Alcotest.(check string) "escape round-trip" hostile back
  | _ -> Alcotest.fail "did not parse back to a string");
  (* A key made of nothing but escapes survives an object round-trip. *)
  let obj = J.Obj [ (hostile, J.Bool true) ] in
  match J.parse (J.to_string obj) with
  | J.Obj [ (k, J.Bool true) ] -> Alcotest.(check string) "key survives" hostile k
  | _ -> Alcotest.fail "object round-trip failed"

let test_json_non_finite () =
  (* JSON has no NaN/Infinity literal: the printer must emit null, never
     an unparseable token. *)
  List.iter
    (fun v ->
      Alcotest.(check string) "non-finite prints null" "null"
        (J.to_string (J.Num v)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  let s = J.to_string (J.Obj [ ("ok", J.Num 1.5); ("bad", J.Num Float.nan) ]) in
  match J.parse s with
  | J.Obj [ ("ok", J.Num v); ("bad", J.Null) ] ->
      Alcotest.(check (float 0.)) "finite neighbour intact" 1.5 v
  | _ -> Alcotest.failf "unexpected parse of %s" s

let test_json_floats_round_trip () =
  List.iter
    (fun v ->
      match J.parse (J.to_string (J.Num v)) with
      | J.Num back ->
          Alcotest.(check bool)
            (Printf.sprintf "%h round-trips" v)
            true
            (Float.equal back v)
      | _ -> Alcotest.fail "not a number")
    [ 0.; -0.; 1.; -1.; 0.1; 1e-300; 1e300; 4096.; 3.565;
      Float.max_float; Float.min_float; 1. /. 3. ]

let test_json_deep_nesting () =
  (* 2000 levels of list nesting: printer and parser must both be
     iterative enough (or stack-frugal enough) to survive. *)
  let depth = 2000 in
  let rec build n = if n = 0 then J.Num 1. else J.List [ build (n - 1) ] in
  let deep = build depth in
  let s = J.to_string deep in
  let rec peel n j =
    match j with
    | J.List [ inner ] -> peel (n + 1) inner
    | J.Num _ -> n
    | _ -> Alcotest.fail "unexpected shape"
  in
  Alcotest.(check int) "depth preserved" depth (peel 0 (J.parse s))

let suite =
  [ Alcotest.test_case "json: escape-heavy strings round-trip" `Quick
      test_json_escapes;
    Alcotest.test_case "json: non-finite floats print null" `Quick
      test_json_non_finite;
    Alcotest.test_case "json: float formatting round-trips" `Quick
      test_json_floats_round_trip;
    Alcotest.test_case "json: 2000-deep nesting survives" `Quick
      test_json_deep_nesting ]
