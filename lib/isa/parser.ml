type error = {
  line : int;
  message : string;
}

exception Parse_error of error

let fail line fmt = Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

(* A branch target is either symbolic or an absolute instruction index. *)
type target = Sym of string | Abs of int

type pre =
  | P_plain of Instr.t
  | P_jump of target
  | P_jump_if of Instr.operand * target
  | P_jump_ifz of Instr.operand * target

(* Index of the first [#] or [//] in [line] at or after [i], or -1. *)
let rec comment_start line i =
  if i >= String.length line then -1
  else
    match String.unsafe_get line i with
    | '#' -> i
    | '/' when i + 1 < String.length line && String.unsafe_get line (i + 1) = '/' -> i
    | _ -> comment_start line (i + 1)

(* The line up to its comment; the scan allocates nothing, and a line
   without a comment is returned as is. *)
let strip_comment line =
  match comment_start line 0 with -1 -> line | i -> String.sub line 0 i

let is_digit c = c >= '0' && c <= '9'

let parse_int line s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail line "expected an integer, got %S" s

let parse_reg line s =
  let n = String.length s in
  let digits = if n >= 2 && s.[0] = 'r' then String.sub s 1 (n - 1) else "" in
  match int_of_string_opt digits with
  | Some r when String.for_all is_digit digits ->
      if r > Regset.max_reg then
        fail line "register %s out of range (r0 .. r%d)" s Regset.max_reg
      else r
  | _ -> fail line "expected a register, got %S" s

let parse_operand line s =
  if s = "" then fail line "empty operand"
  else if s.[0] = 'r' && String.length s > 1 && is_digit s.[1] then
    Instr.Reg (parse_reg line s)
  else if s.[0] = '%' then
    match s with
    | "%tid" -> Instr.Special Instr.Tid
    | "%ctaid" -> Instr.Special Instr.Ctaid
    | "%ntid" -> Instr.Special Instr.Ntid
    | "%nctaid" -> Instr.Special Instr.Nctaid
    | "%warpid" -> Instr.Special Instr.Warp_id
    | "%laneid" -> Instr.Special Instr.Lane_id
    | _ -> fail line "unknown special register %S" s
  else if String.length s > 6 && String.sub s 0 6 = "param[" && s.[String.length s - 1] = ']'
  then Instr.Param (parse_int line (String.sub s 6 (String.length s - 7)))
  else Instr.Imm (parse_int line s)

(* "[base+ofs]" / "[base-ofs]" / "[base]" *)
let parse_address line s =
  let n = String.length s in
  if n < 2 || s.[0] <> '[' || s.[n - 1] <> ']' then
    fail line "expected a memory operand like [r2+4], got %S" s
  else begin
    let inner = String.sub s 1 (n - 2) in
    let split_at i =
      (String.sub inner 0 i, String.sub inner (i + 1) (String.length inner - i - 1))
    in
    let rec find_sep i =
      if i >= String.length inner then None
      else if i > 0 && (inner.[i] = '+' || inner.[i] = '-') then Some i
      else find_sep (i + 1)
    in
    match find_sep 1 with
    | Some i ->
        let base, ofs = split_at i in
        let ofs = parse_int line ofs in
        (parse_operand line base, if inner.[i] = '-' then -ofs else ofs)
    | None -> (parse_operand line inner, 0)
  end

let parse_target line s =
  if String.length s > 1 && s.[0] = '@' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some t -> Abs t
    | None -> fail line "expected an instruction index after '@', got %S" s
  else Sym s

let binops =
  [ ("add", Instr.Add); ("sub", Instr.Sub); ("mul", Instr.Mul); ("div", Instr.Div);
    ("rem", Instr.Rem); ("min", Instr.Min); ("max", Instr.Max); ("and", Instr.And);
    ("or", Instr.Or); ("xor", Instr.Xor); ("shl", Instr.Shl); ("shr", Instr.Shr) ]

let unops = [ ("neg", Instr.Neg); ("not", Instr.Not); ("abs", Instr.Abs) ]

let cmpops =
  [ ("set.eq", Instr.Eq); ("set.ne", Instr.Ne); ("set.lt", Instr.Lt);
    ("set.le", Instr.Le); ("set.gt", Instr.Gt); ("set.ge", Instr.Ge) ]

let tokenize s =
  String.split_on_char ' ' (String.map (fun c -> if c = ',' || c = '\t' then ' ' else c) s)
  |> List.filter (fun t -> t <> "")

let parse_instr line tokens =
  let op2 f = function
    | [ d; a ] -> f (parse_reg line d) (parse_operand line a)
    | _ -> fail line "expected 2 operands"
  in
  let op3 f = function
    | [ d; a; b ] -> f (parse_reg line d) (parse_operand line a) (parse_operand line b)
    | _ -> fail line "expected 3 operands"
  in
  match tokens with
  | [] -> fail line "empty instruction"
  | mnemonic :: args -> (
      match List.assoc_opt mnemonic binops with
      | Some op -> op3 (fun d a b -> P_plain (Instr.Bin (op, d, a, b))) args
      | None -> (
          match List.assoc_opt mnemonic unops with
          | Some op -> op2 (fun d a -> P_plain (Instr.Un (op, d, a))) args
          | None -> (
              match List.assoc_opt mnemonic cmpops with
              | Some op -> op3 (fun d a b -> P_plain (Instr.Cmp (op, d, a, b))) args
              | None -> (
                  match (mnemonic, args) with
                  | "mov", [ d; a ] ->
                      P_plain (Instr.Mov (parse_reg line d, parse_operand line a))
                  | "mad", [ d; a; b; c ] ->
                      P_plain
                        (Instr.Mad
                           ( parse_reg line d, parse_operand line a,
                             parse_operand line b, parse_operand line c ))
                  | "sel", [ d; c; a; b ] ->
                      P_plain
                        (Instr.Sel
                           ( parse_reg line d, parse_operand line c,
                             parse_operand line a, parse_operand line b ))
                  | "ld.global", [ d; m ] ->
                      let addr, ofs = parse_address line m in
                      P_plain (Instr.Load (Instr.Global, parse_reg line d, addr, ofs))
                  | "ld.shared", [ d; m ] ->
                      let addr, ofs = parse_address line m in
                      P_plain (Instr.Load (Instr.Shared, parse_reg line d, addr, ofs))
                  | "st.global", [ m; v ] ->
                      let addr, ofs = parse_address line m in
                      P_plain (Instr.Store (Instr.Global, addr, parse_operand line v, ofs))
                  | "st.shared", [ m; v ] ->
                      let addr, ofs = parse_address line m in
                      P_plain (Instr.Store (Instr.Shared, addr, parse_operand line v, ofs))
                  | "ld.spill", [ d; m ] ->
                      let addr, ofs = parse_address line m in
                      P_plain (Instr.Load (Instr.Spill, parse_reg line d, addr, ofs))
                  | "st.spill", [ m; v ] ->
                      let addr, ofs = parse_address line m in
                      P_plain (Instr.Store (Instr.Spill, addr, parse_operand line v, ofs))
                  | "bra", [ t ] -> P_jump (parse_target line t)
                  | "bra.nz", [ c; t ] -> P_jump_if (parse_operand line c, parse_target line t)
                  | "bra.z", [ c; t ] -> P_jump_ifz (parse_operand line c, parse_target line t)
                  | "bar.sync", [] | "bar", [] -> P_plain Instr.Bar
                  | "regmutex.acquire", [] -> P_plain Instr.Acquire
                  | "regmutex.release", [] -> P_plain Instr.Release
                  | "exit", [] -> P_plain Instr.Exit
                  | _ -> fail line "unknown instruction %S" (String.concat " " tokens)))))

(* Strip an optional "NNN:" disassembly prefix. *)
let strip_index tokens =
  match tokens with
  | first :: rest
    when String.length first > 1
         && first.[String.length first - 1] = ':'
         && String.for_all is_digit (String.sub first 0 (String.length first - 1)) ->
      rest
  | _ -> tokens

(* The register count a [kernel NAME (N regs)] header declares. *)
let parse_header line s =
  let malformed () =
    fail line "malformed kernel header %S (expected \"kernel NAME (N regs)\")" s
  in
  match String.rindex_opt s '(' with
  | None -> malformed ()
  | Some i -> (
      let tail = String.sub s i (String.length s - i) in
      match Scanf.sscanf_opt tail "(%d regs)%!" Fun.id with
      | Some n when n >= 0 -> n
      | Some _ | None -> malformed ())

let parse ~name text =
  let labels = Hashtbl.create 16 in
  let pres = ref [] in
  let count = ref 0 in
  let declared = ref None in
  let handle_line lineno raw =
    let s = String.trim (strip_comment raw) in
    if s = "" then ()
    else if String.length s >= 7 && String.sub s 0 7 = "kernel " then begin
      if !declared <> None then fail lineno "second kernel header";
      declared := Some (parse_header lineno s)
    end
    else begin
      let tokens = strip_index (tokenize s) in
      match tokens with
      | [ single ] when String.length single > 1 && single.[String.length single - 1] = ':'
        && not (String.for_all is_digit (String.sub single 0 (String.length single - 1))) ->
          let label = String.sub single 0 (String.length single - 1) in
          if Hashtbl.mem labels label then fail lineno "duplicate label %S" label;
          Hashtbl.add labels label !count
      | [] -> ()
      | tokens ->
          pres := (lineno, parse_instr lineno tokens) :: !pres;
          incr count
    end
  in
  List.iteri (fun i raw -> handle_line (i + 1) raw) (String.split_on_char '\n' text);
  let pres = List.rev !pres in
  let resolve lineno = function
    | Abs t when t < 0 || t >= !count ->
        fail lineno "branch target @%d outside the program's %d instructions" t !count
    | Abs t -> t
    | Sym l -> (
        match Hashtbl.find_opt labels l with
        | Some t -> t
        | None -> fail lineno "unresolved label %S" l)
  in
  (* Every register must fall within the header's declared count. *)
  let check_regs lineno instr =
    match !declared with
    | Some n ->
        let out = Regset.above n (Instr.regs instr) in
        if not (Regset.is_empty out) then
          fail lineno "r%d out of range: the kernel header declares %d regs"
            (Regset.min_elt out) n
    | None -> ()
  in
  let instrs =
    List.map
      (fun (lineno, pre) ->
        let instr =
          match pre with
          | P_plain i -> i
          | P_jump t -> Instr.Jump (resolve lineno t)
          | P_jump_if (c, t) -> Instr.Jump_if (c, resolve lineno t)
          | P_jump_ifz (c, t) -> Instr.Jump_ifz (c, resolve lineno t)
        in
        check_regs lineno instr;
        instr)
      pres
  in
  (* Whole-program faults point at the last instruction: where the body
     ends without an [exit], falls through, or turns out register-free. *)
  let last_line = List.fold_left (fun _ (lineno, _) -> lineno) 1 pres in
  let program =
    try Program.create ~name (Array.of_list instrs)
    with Program.Invalid msg ->
      let prefix = name ^ ": " in
      fail last_line "%s"
        (if String.starts_with ~prefix msg then
           String.sub msg (String.length prefix) (String.length msg - String.length prefix)
         else msg)
  in
  if program.Program.n_regs = 0 then
    fail last_line "program uses no register: a kernel needs at least one";
  program

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  let base = Filename.remove_extension (Filename.basename path) in
  parse ~name:base text

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message
