type binop =
  | Add | Sub | Mul | Div | Rem
  | Min | Max
  | And | Or | Xor | Shl | Shr

type unop = Neg | Not | Abs

type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type space = Global | Shared | Spill

type special =
  | Tid
  | Ctaid
  | Ntid
  | Nctaid
  | Warp_id
  | Lane_id

type operand =
  | Reg of int
  | Imm of int
  | Special of special
  | Param of int

type t =
  | Bin of binop * int * operand * operand
  | Un of unop * int * operand
  | Mad of int * operand * operand * operand
  | Mov of int * operand
  | Cmp of cmpop * int * operand * operand
  | Sel of int * operand * operand * operand
  | Load of space * int * operand * int
  | Store of space * operand * operand * int
  | Jump of int
  | Jump_if of operand * int
  | Jump_ifz of operand * int
  | Bar
  | Acquire
  | Release
  | Exit

type lat_class =
  | Lat_alu
  | Lat_complex
  | Lat_shared
  | Lat_global
  | Lat_control

let lat_class = function
  | Bin ((Mul | Div | Rem), _, _, _) | Mad _ -> Lat_complex
  | Bin _ | Un _ | Mov _ | Cmp _ | Sel _ -> Lat_alu
  | Load ((Shared | Spill), _, _, _) | Store ((Shared | Spill), _, _, _) ->
      Lat_shared
  | Load (Global, _, _, _) | Store (Global, _, _, _) -> Lat_global
  | Jump _ | Jump_if _ | Jump_ifz _ | Bar | Acquire | Release | Exit -> Lat_control

let operand_uses = function
  | Reg r -> Regset.singleton r
  | Imm _ | Special _ | Param _ -> Regset.empty

let defs = function
  | Bin (_, d, _, _) | Un (_, d, _) | Mad (d, _, _, _) | Mov (d, _)
  | Cmp (_, d, _, _) | Sel (d, _, _, _) | Load (_, d, _, _) ->
      Regset.singleton d
  | Store _ | Jump _ | Jump_if _ | Jump_ifz _ | Bar | Acquire | Release | Exit ->
      Regset.empty

let uses = function
  | Bin (_, _, a, b) | Cmp (_, _, a, b) ->
      Regset.union (operand_uses a) (operand_uses b)
  | Un (_, _, a) | Mov (_, a) | Jump_if (a, _) | Jump_ifz (a, _) ->
      operand_uses a
  | Mad (_, a, b, c) | Sel (_, a, b, c) ->
      Regset.union (operand_uses a) (Regset.union (operand_uses b) (operand_uses c))
  | Load (_, _, addr, _) -> operand_uses addr
  | Store (_, addr, value, _) -> Regset.union (operand_uses addr) (operand_uses value)
  | Jump _ | Bar | Acquire | Release | Exit -> Regset.empty

let regs i = Regset.union (defs i) (uses i)

let is_branch = function
  | Jump _ | Jump_if _ | Jump_ifz _ -> true
  | Bin _ | Un _ | Mad _ | Mov _ | Cmp _ | Sel _ | Load _ | Store _
  | Bar | Acquire | Release | Exit -> false

let target = function
  | Jump t | Jump_if (_, t) | Jump_ifz (_, t) -> Some t
  | Bin _ | Un _ | Mad _ | Mov _ | Cmp _ | Sel _ | Load _ | Store _
  | Bar | Acquire | Release | Exit -> None

let with_target i t =
  match i with
  | Jump _ -> Jump t
  | Jump_if (c, _) -> Jump_if (c, t)
  | Jump_ifz (c, _) -> Jump_ifz (c, t)
  | Bin _ | Un _ | Mad _ | Mov _ | Cmp _ | Sel _ | Load _ | Store _
  | Bar | Acquire | Release | Exit -> i

let map_target f i =
  match target i with
  | None -> i
  | Some t -> with_target i (f t)

let map_operand f = function
  | Reg r -> Reg (f r)
  | (Imm _ | Special _ | Param _) as o -> o

let map_regs f i =
  let g = map_operand f in
  match i with
  | Bin (op, d, a, b) -> Bin (op, f d, g a, g b)
  | Un (op, d, a) -> Un (op, f d, g a)
  | Mad (d, a, b, c) -> Mad (f d, g a, g b, g c)
  | Mov (d, a) -> Mov (f d, g a)
  | Cmp (op, d, a, b) -> Cmp (op, f d, g a, g b)
  | Sel (d, c, a, b) -> Sel (f d, g c, g a, g b)
  | Load (sp, d, addr, ofs) -> Load (sp, f d, g addr, ofs)
  | Store (sp, addr, v, ofs) -> Store (sp, g addr, g v, ofs)
  | Jump_if (c, t) -> Jump_if (g c, t)
  | Jump_ifz (c, t) -> Jump_ifz (g c, t)
  | (Jump _ | Bar | Acquire | Release | Exit) as i -> i

let equal (a : t) (b : t) = a = b

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | Min -> "min" | Max -> "max"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"

let unop_name = function Neg -> "neg" | Not -> "not" | Abs -> "abs"

let cmpop_name = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let space_name = function
  | Global -> "global"
  | Shared -> "shared"
  | Spill -> "spill"

let special_name = function
  | Tid -> "%tid"
  | Ctaid -> "%ctaid"
  | Ntid -> "%ntid"
  | Nctaid -> "%nctaid"
  | Warp_id -> "%warpid"
  | Lane_id -> "%laneid"

(* The printers write into a Buffer: the fuzz oracle's print/parse
   round trip prints every kernel it tests, and Format's per-directive
   machinery dominated that cost. *)
(* Decimal digits straight into the buffer: [string_of_int] goes through
   the C printf machinery once per call. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

let add_operand b = function
  | Reg r ->
      Buffer.add_char b 'r';
      add_int b r
  | Imm n -> add_int b n
  | Special s -> Buffer.add_string b (special_name s)
  | Param i ->
      Buffer.add_string b "param[";
      add_int b i;
      Buffer.add_char b ']'

(* ", " then an operand; " r" then a register; the "[a+ofs]" address. *)
let add_reg b d =
  Buffer.add_string b " r";
  add_int b d

let add_arg b o =
  Buffer.add_string b ", ";
  add_operand b o

let add_addr b a ofs =
  Buffer.add_char b '[';
  add_operand b a;
  Buffer.add_char b '+';
  add_int b ofs;
  Buffer.add_char b ']'

let add_to_buffer b instr =
  match instr with
  | Bin (op, d, a, x) ->
      Buffer.add_string b (binop_name op);
      add_reg b d;
      add_arg b a;
      add_arg b x
  | Un (op, d, a) ->
      Buffer.add_string b (unop_name op);
      add_reg b d;
      add_arg b a
  | Mad (d, a, x, c) ->
      Buffer.add_string b "mad";
      add_reg b d;
      add_arg b a;
      add_arg b x;
      add_arg b c
  | Mov (d, a) ->
      Buffer.add_string b "mov";
      add_reg b d;
      add_arg b a
  | Cmp (op, d, a, x) ->
      Buffer.add_string b "set.";
      Buffer.add_string b (cmpop_name op);
      add_reg b d;
      add_arg b a;
      add_arg b x
  | Sel (d, c, a, x) ->
      Buffer.add_string b "sel";
      add_reg b d;
      add_arg b c;
      add_arg b a;
      add_arg b x
  | Load (sp, d, a, ofs) ->
      Buffer.add_string b "ld.";
      Buffer.add_string b (space_name sp);
      add_reg b d;
      Buffer.add_string b ", ";
      add_addr b a ofs
  | Store (sp, a, v, ofs) ->
      Buffer.add_string b "st.";
      Buffer.add_string b (space_name sp);
      Buffer.add_char b ' ';
      add_addr b a ofs;
      add_arg b v
  | Jump t ->
      Buffer.add_string b "bra @";
      add_int b t
  | Jump_if (c, t) ->
      Buffer.add_string b "bra.nz ";
      add_operand b c;
      Buffer.add_string b ", @";
      add_int b t
  | Jump_ifz (c, t) ->
      Buffer.add_string b "bra.z ";
      add_operand b c;
      Buffer.add_string b ", @";
      add_int b t
  | Bar -> Buffer.add_string b "bar.sync"
  | Acquire -> Buffer.add_string b "regmutex.acquire"
  | Release -> Buffer.add_string b "regmutex.release"
  | Exit -> Buffer.add_string b "exit"

let to_string i =
  let b = Buffer.create 32 in
  add_to_buffer b i;
  Buffer.contents b

let pp_operand ppf o =
  let b = Buffer.create 16 in
  add_operand b o;
  Format.pp_print_string ppf (Buffer.contents b)

let pp ppf i = Format.pp_print_string ppf (to_string i)

