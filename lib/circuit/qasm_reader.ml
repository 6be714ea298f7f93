(** OpenQASM 2.0 reader for the gate subset this project emits and the
    common gates of the benchmark suites (qelib1-style).  Enough to
    round-trip {!Qasm.to_string} output and to ingest external circuits
    for compilation; unsupported statements raise with the source file
    name, line number, and column.

    One parser, two entry styles: the whole-circuit API ([of_string] /
    [of_file]) and the incremental API ([stream_of_channel] /
    [next_event]) share the same per-statement parser, so streamed
    parsing is equivalent to in-memory parsing by construction.

    The parser lexes each line in place, through offsets into the
    refill buffer: keywords and gate names are compared where they
    stand, arguments and operands are scanned between their commas, and
    a plain numeral is converted by one [float_of_string] over its own
    span — the value the expression parser gives it — unless it repeats
    the last plain numeral's bytes, whose value is kept.  Only
    [pi]-arithmetic goes through the tokenizer and expression parser.
    Every helper takes its bytes and bounds as arguments (no closures),
    so a typical gate line allocates little beyond the instruction. *)

exception Parse_error of string * int * int * string

(* Every failure site knows the source file, line, and (1-based) column,
   so error messages read like a compiler's:
   "circuit.qasm:17:3: unsupported gate foo/2". *)
let fail file line col msg = raise (Parse_error (file, line, col, msg))

let is_ws c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

(* ------------------------------------------------------------------ *)
(* Scanning helpers over b.[i, stop)                                  *)
(* ------------------------------------------------------------------ *)

(* First index of [c] in b.[i, stop), or [stop]. *)
let rec index_char b c i stop =
  if i >= stop || Bytes.get b i = c then i else index_char b c (i + 1) stop

let rec skip_ws b i stop = if i < stop && is_ws (Bytes.get b i) then skip_ws b (i + 1) stop else i

(* The end of b.[lo, hi) with trailing whitespace dropped. *)
let rec trim_end b lo hi = if hi > lo && is_ws (Bytes.get b (hi - 1)) then trim_end b lo (hi - 1) else hi

let rec is_prefix b i stop kw k =
  k >= String.length kw
  || (i + k < stop && Bytes.get b (i + k) = kw.[k] && is_prefix b i stop kw (k + 1))

let lower b i = Char.lowercase_ascii (Bytes.get b i)

(* A numeral runs over digits, '.', an exponent marker, and a sign
   right after the marker; b.[i] is its first character (a digit or
   '.').  Returns the end of the maximal numeral. *)
let rec numeral_end b i stop =
  if i >= stop then i
  else
    match Bytes.get b i with
    | '0' .. '9' | '.' | 'e' | 'E' -> numeral_end b (i + 1) stop
    | '+' | '-' when (match Bytes.get b (i - 1) with 'e' | 'E' -> true | _ -> false) ->
        numeral_end b (i + 1) stop
    | _ -> i

let starts_numeral c = (c >= '0' && c <= '9') || c = '.'

(* The value of numeral text [s]; [col] is the column of its first
   character. *)
let numeral_value file line col s =
  try float_of_string s with Failure _ -> fail file line col ("malformed number " ^ s)

(* The value of the numeral b.[i, j); [col] is the column of b.[i]. *)
let numeral file line col b i j = numeral_value file line col (Bytes.sub_string b i (j - i))

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

(* Arithmetic expressions in gate arguments: numbers, pi, + - * / and
   parentheses (recursive descent over a token list).  Tokens carry the
   0-based offset of their first character so errors deep inside an
   expression still point at the exact column. *)
type token = Num of float | Pi | Plus | Minus | Star | Slash | LParen | RParen

(* Tokens of b.[start, stop); [col] is the column of b.[start]. *)
let tokenize_expr file line col b start stop =
  let tokens = ref [] in
  let i = ref start in
  while !i < stop do
    let c = Bytes.get b !i in
    let off = !i - start in
    let push t =
      tokens := (t, off) :: !tokens;
      incr i
    in
    if c = ' ' || c = '\t' then incr i
    else if c = '+' then push Plus
    else if c = '-' then push Minus
    else if c = '*' then push Star
    else if c = '/' then push Slash
    else if c = '(' then push LParen
    else if c = ')' then push RParen
    else if c = 'p' && !i + 1 < stop && Bytes.get b (!i + 1) = 'i' then begin
      tokens := (Pi, off) :: !tokens;
      i := !i + 2
    end
    else if starts_numeral c then begin
      let j = numeral_end b (!i + 1) stop in
      tokens := (Num (numeral file line (col + off) b !i j), off) :: !tokens;
      i := j
    end
    else fail file line (col + off) (Printf.sprintf "unexpected character %c in expression" c)
  done;
  List.rev !tokens

(* expr := term (('+'|'-') term)* ; term := factor (('*'|'/') factor)* ;
   factor := ['-'] (number | pi | '(' expr ')')
   [col] is the column of the expression's first character; token
   offsets are added to it so every error points at its own token. *)
let parse_expr file line col endcol tokens =
  let toks = ref tokens in
  let pos () = match !toks with [] -> endcol | (_, o) :: _ -> col + o in
  let peek () = match !toks with [] -> None | (t, _) :: _ -> Some t in
  let advance () =
    match !toks with
    | [] -> fail file line endcol "unexpected end of expression"
    | _ :: r -> toks := r
  in
  let rec expr () =
    let v = ref (term ()) in
    let rec loop () =
      match peek () with
      | Some Plus ->
          advance ();
          v := !v +. term ();
          loop ()
      | Some Minus ->
          advance ();
          v := !v -. term ();
          loop ()
      | _ -> ()
    in
    loop ();
    !v
  and term () =
    let v = ref (factor ()) in
    let rec loop () =
      match peek () with
      | Some Star ->
          advance ();
          v := !v *. factor ();
          loop ()
      | Some Slash ->
          advance ();
          v := !v /. factor ();
          loop ()
      | _ -> ()
    in
    loop ();
    !v
  and factor () =
    match peek () with
    | Some Minus ->
        advance ();
        -.factor ()
    | Some (Num x) ->
        advance ();
        x
    | Some Pi ->
        advance ();
        Float.pi
    | Some LParen ->
        advance ();
        let v = expr () in
        (match peek () with
        | Some RParen -> advance ()
        | _ -> fail file line (pos ()) "expected )");
        v
    | _ -> fail file line (pos ()) "malformed expression"
  in
  let v = expr () in
  if !toks <> [] then fail file line (pos ()) "trailing tokens in expression";
  v

(* The value of b.[i, stop) when it is at most nine decimal digits,
   else -1 (left to [int_of_string], which also takes signs, prefixes
   and underscores). *)
let rec small_decimal b i stop acc =
  if i >= stop then acc
  else
    match Bytes.get b i with
    | '0' .. '9' as c -> small_decimal b (i + 1) stop ((10 * acc) + Char.code c - Char.code '0')
    | _ -> -1

(* "q[3]" -> 3 (single register named q): b.[start, stop) is the
   trimmed operand and [col] its column. *)
let parse_qubit file line col b start stop =
  let lb = index_char b '[' start stop in
  if lb < stop && Bytes.get b (stop - 1) = ']' then begin
    let ds = lb + 1 and de = stop - 1 in
    let fast = if de > ds && de - ds <= 9 then small_decimal b ds de 0 else -1 in
    if fast >= 0 then fast
    else
      let idx = Bytes.sub_string b ds (de - ds) in
      match int_of_string_opt idx with
      | Some q -> q
      | None -> fail file line (col + lb - start + 1) ("bad qubit index " ^ idx)
  end
  else fail file line col ("expected q[i], got " ^ Bytes.sub_string b start (stop - start))

(* ------------------------------------------------------------------ *)
(* Gate names                                                         *)
(* ------------------------------------------------------------------ *)

type gate_name = Fixed of Qgate.t | Rx_name | Ry_name | Rz_name | U3_name | Unknown_name

let rec same_lower b s kw k =
  k >= String.length kw || (lower b (s + k) = kw.[k] && same_lower b s kw (k + 1))

(* The gate name spelled b.[s, s + n), case-insensitively (qelib1's
   [u] and [u1] and the [toffoli] alias included). *)
let gate_name b s n =
  match n with
  | 1 -> (
      match lower b s with
      | 'h' -> Fixed Qgate.H
      | 'x' -> Fixed Qgate.X
      | 'y' -> Fixed Qgate.Y
      | 'z' -> Fixed Qgate.Z
      | 's' -> Fixed Qgate.S
      | 't' -> Fixed Qgate.T
      | 'u' -> U3_name
      | _ -> Unknown_name)
  | 2 -> (
      match (lower b s, lower b (s + 1)) with
      | 'r', 'x' -> Rx_name
      | 'r', 'y' -> Ry_name
      | 'r', 'z' | 'u', '1' -> Rz_name
      | 'u', '3' -> U3_name
      | 'c', 'x' -> Fixed Qgate.CX
      | 'c', 'z' -> Fixed Qgate.CZ
      | _ -> Unknown_name)
  | 3 ->
      if same_lower b s "sdg" 0 then Fixed Qgate.Sdg
      else if same_lower b s "tdg" 0 then Fixed Qgate.Tdg
      else if same_lower b s "ccx" 0 then Fixed Qgate.Ccx
      else Unknown_name
  | 4 when same_lower b s "swap" 0 -> Fixed Qgate.Swap
  | 7 when same_lower b s "toffoli" 0 -> Fixed Qgate.Ccx
  | _ -> Unknown_name

(* ------------------------------------------------------------------ *)
(* Shared statement parser                                            *)
(* ------------------------------------------------------------------ *)

type event = Qreg of int | Instr of Circuit.instr

(* Mutable reader state shared by the whole-file and streaming paths:
   validation (arity, range, declaration-before-use) happens statement
   by statement in both.  The rest is per-statement scratch: the first
   three argument values and the operands with their columns; and the
   last plain numeral converted, its text and value: a stream repeats
   few numerals, so a repeat is answered without a substring or a
   [float_of_string]. *)
type state = {
  mutable n_qubits : int;
  mutable saw_qreg : bool;
  args : float array;
  mutable nargs : int;
  mutable ops : int array;
  mutable op_cols : int array;
  mutable nops : int;
  mutable num : string;
  mutable num_value : float;
}

let new_state () =
  {
    n_qubits = 0;
    saw_qreg = false;
    args = Array.make 3 0.0;
    nargs = 0;
    ops = Array.make 4 0;
    op_cols = Array.make 4 0;
    nops = 0;
    num = "";
    num_value = 0.0;
  }

let rec same_text b i s k n = k >= n || (Bytes.get b (i + k) = s.[k] && same_text b i s (k + 1) n)

(* [numeral] through the state's last numeral: the same text gives the
   same value.  Only a converted numeral is kept, so a malformed one
   fails every time. *)
let plain_numeral st file line col b i j =
  let n = j - i in
  if n = String.length st.num && same_text b i st.num 0 n then st.num_value
  else begin
    let s = Bytes.sub_string b i n in
    let x = numeral_value file line col s in
    st.num <- s;
    st.num_value <- x;
    x
  end

(* One argument, b.[start, stop) trimmed and non-empty.  A plain
   numeral, optionally negated, is converted directly: the expression
   parser would read the same span with the same [float_of_string] and
   negate it, so the value and any error are the same. *)
let eval_arg st file line col b start stop =
  let neg = Bytes.get b start = '-' in
  let ns = if neg then start + 1 else start in
  if ns < stop && starts_numeral (Bytes.get b ns) && numeral_end b (ns + 1) stop = stop then begin
    let x = plain_numeral st file line (col + ns - start) b ns stop in
    if neg then -.x else x
  end
  else parse_expr file line col (col + stop - start) (tokenize_expr file line col b start stop)

(* The arguments in b.[from, upto), split on ',' (each piece trimmed,
   empty pieces dropped), evaluated in order; [start] is the line's
   first byte, so b.[i] sits at column [i - start + 1]. *)
let rec eval_args st file line start b from upto =
  let sep = index_char b ',' from upto in
  let ps = skip_ws b from sep in
  let pe = trim_end b ps sep in
  if pe > ps then begin
    let v = eval_arg st file line (ps - start + 1) b ps pe in
    if st.nargs < Array.length st.args then st.args.(st.nargs) <- v;
    st.nargs <- st.nargs + 1
  end;
  if sep < upto then eval_args st file line start b (sep + 1) upto

let push_operand st q col =
  if st.nops = Array.length st.ops then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    st.ops <- grow st.ops;
    st.op_cols <- grow st.op_cols
  end;
  st.ops.(st.nops) <- q;
  st.op_cols.(st.nops) <- col;
  st.nops <- st.nops + 1

(* The operands in b.[from, upto), split as the arguments are. *)
let rec parse_operands st file line start b from upto =
  let sep = index_char b ',' from upto in
  let ps = skip_ws b from sep in
  let pe = trim_end b ps sep in
  if pe > ps then begin
    let col = ps - start + 1 in
    push_operand st (parse_qubit file line col b ps pe) col
  end;
  if sep < upto then parse_operands st file line start b (sep + 1) upto

let parse_qreg st file line col sub =
  match (String.index_opt sub '[', String.index_opt sub ']') with
  | Some i, Some j when j > i -> (
      match int_of_string_opt (String.trim (String.sub sub (i + 1) (j - i - 1))) with
      | Some nq when nq > 0 ->
          st.saw_qreg <- true;
          st.n_qubits <- nq;
          Some (Qreg nq)
      | _ -> fail file line (col + i) "malformed qreg")
  | _ -> fail file line col "malformed qreg"

let rec first_ws b i stop = if i >= stop || is_ws (Bytes.get b i) then i else first_ws b (i + 1) stop

(* The last ')' in b.(op, i]; [start] is the line's first byte. *)
let rec close_paren file line start b op i =
  if i <= op then fail file line (op - start + 1) "unbalanced ("
  else if Bytes.get b i = ')' then i
  else close_paren file line start b op (i - 1)

(* gate[(args)] q[i] [, q[j] ...] over the trimmed statement b.[s, e). *)
let parse_gate st file line start b s e =
  let col = s - start + 1 in
  let op = index_char b '(' s e in
  let ws = first_ws b s e in
  st.nargs <- 0;
  st.nops <- 0;
  let name_end, operands_from =
    if op < ws then begin
      (* Arguments run to the matching close; arguments may nest
         parentheses but operands never contain one, so the last ')'
         of the statement is the close. *)
      let close = close_paren file line start b op (e - 1) in
      eval_args st file line start b (op + 1) close;
      (op, close + 1)
    end
    else if ws < e then (ws, ws + 1)
    else fail file line col ("malformed statement: " ^ Bytes.sub_string b s (e - s))
  in
  parse_operands st file line start b operands_from e;
  (* Range and arity problems are caught here, per statement, so the
     message points at the offending operand instead of surfacing
     later as an Invalid_argument from Circuit. *)
  for k = 0 to st.nops - 1 do
    let q = st.ops.(k) in
    if not st.saw_qreg then fail file line col "gate before qreg declaration"
    else if q < 0 || q >= st.n_qubits then
      fail file line st.op_cols.(k)
        (Printf.sprintf "qubit %d out of range (qreg has %d)" q st.n_qubits)
  done;
  let gate =
    match (gate_name b s (name_end - s), st.nargs) with
    | Fixed g, 0 -> g
    | Rx_name, 1 -> Qgate.Rx st.args.(0)
    | Ry_name, 1 -> Qgate.Ry st.args.(0)
    | Rz_name, 1 -> Qgate.Rz st.args.(0)
    | U3_name, 3 -> Qgate.U3 (st.args.(0), st.args.(1), st.args.(2))
    | _ ->
        fail file line col
          (Printf.sprintf "unsupported gate %s/%d"
             (String.lowercase_ascii (Bytes.sub_string b s (name_end - s)))
             st.nargs)
  in
  match Circuit.instr gate (Array.sub st.ops 0 st.nops) with
  | instr -> Some (Instr instr)
  | exception Invalid_argument msg -> fail file line col msg

(* The first "//" in b.[i, stop), or [stop]. *)
let rec comment_start b i stop =
  if i + 1 >= stop then stop
  else if Bytes.get b i = '/' && Bytes.get b (i + 1) = '/' then i
  else comment_start b (i + 1) stop

(* Parse the source line b.[start, stop) (without its newline).
   Returns [None] for lines that contribute nothing to the circuit
   (blank, comment, OPENQASM/include/barrier/creg/measure). *)
let parse_line st file line b start stop : event option =
  (* The statement ends at the first "//" comment. *)
  let limit = comment_start b start stop in
  (* Trim to [s, e): surrounding whitespace (including a CR from CRLF
     line endings) and the trailing ';' dropped.  Offsets stay within
     the line so columns are exact. *)
  let s = skip_ws b start limit in
  let e = trim_end b s limit in
  let e = if e > s && Bytes.get b (e - 1) = ';' then trim_end b s (e - 1) else e in
  if e = s then None
  else if
    is_prefix b s e "OPENQASM" 0 || is_prefix b s e "include" 0 || is_prefix b s e "barrier" 0
    || is_prefix b s e "creg" 0 || is_prefix b s e "measure" 0
  then None
  else if is_prefix b s e "qreg" 0 then
    parse_qreg st file line (s - start + 1) (Bytes.sub_string b s (e - s))
  else parse_gate st file line start b s e

(* ------------------------------------------------------------------ *)
(* Incremental (streaming) API                                        *)
(* ------------------------------------------------------------------ *)

type stream = {
  file : string;
  refill : bytes -> int;  (* fill [buf] from the source; 0 = EOF *)
  buf : bytes;
  mutable pos : int;  (* read cursor within [buf] *)
  mutable len : int;  (* valid bytes in [buf] *)
  mutable eof : bool;
  mutable carry : bytes;  (* a line split across refills, assembled here *)
  mutable carry_len : int;
  mutable lineno : int;
  st : state;
}

let stream_of_refill ~file ~chunk refill =
  if chunk < 1 then invalid_arg "Qasm_reader: chunk must be >= 1";
  {
    file;
    refill;
    buf = Bytes.create chunk;
    pos = 0;
    len = 0;
    eof = false;
    carry = Bytes.create 256;
    carry_len = 0;
    lineno = 0;
    st = new_state ();
  }

let stream_of_channel ?(file = "<channel>") ?(chunk = 65536) ic =
  stream_of_refill ~file ~chunk (fun buf -> input ic buf 0 (Bytes.length buf))

let stream_of_string ?(file = "<string>") ?(chunk = 65536) text =
  let off = ref 0 in
  stream_of_refill ~file ~chunk (fun buf ->
      let n = min (Bytes.length buf) (String.length text - !off) in
      Bytes.blit_string text !off buf 0 n;
      off := !off + n;
      n)

let stream_n_qubits sr = sr.st.n_qubits

let append_carry sr from upto =
  let need = sr.carry_len + upto - from in
  if need > Bytes.length sr.carry then begin
    let grown = Bytes.create (max need (2 * Bytes.length sr.carry)) in
    Bytes.blit sr.carry 0 grown 0 sr.carry_len;
    sr.carry <- grown
  end;
  Bytes.blit sr.buf from sr.carry sr.carry_len (upto - from);
  sr.carry_len <- need

(* Lines are parsed where they lie in the refill buffer; only a line
   split across refills is first assembled in [carry].  Memory held is
   one chunk plus one line — never the whole file. *)
let rec next_event sr =
  if sr.eof then None
  else if sr.pos >= sr.len then begin
    let n = sr.refill sr.buf in
    if n > 0 then begin
      sr.pos <- 0;
      sr.len <- n;
      next_event sr
    end
    else begin
      sr.eof <- true;
      (* A final line without a trailing newline still parses. *)
      if sr.carry_len = 0 then None else take_carry sr
    end
  end
  else begin
    let nl = index_char sr.buf '\n' sr.pos sr.len in
    let from = sr.pos in
    sr.pos <- min sr.len (nl + 1);
    if nl = sr.len then begin
      append_carry sr from nl;
      next_event sr
    end
    else if sr.carry_len = 0 then parse_next sr sr.buf from nl
    else begin
      append_carry sr from nl;
      take_carry sr
    end
  end

and take_carry sr =
  let stop = sr.carry_len in
  sr.carry_len <- 0;
  parse_next sr sr.carry 0 stop

and parse_next sr b start stop =
  sr.lineno <- sr.lineno + 1;
  match parse_line sr.st sr.file sr.lineno b start stop with
  | Some _ as ev -> ev
  | None -> next_event sr

(* ------------------------------------------------------------------ *)
(* Whole-circuit API (drains the stream)                              *)
(* ------------------------------------------------------------------ *)

let of_stream sr =
  let instrs = ref [] in
  let rec loop () =
    match next_event sr with
    | Some (Instr i) ->
        instrs := i :: !instrs;
        loop ()
    | Some (Qreg _) -> loop ()
    | None -> ()
  in
  loop ();
  Circuit.make sr.st.n_qubits (List.rev !instrs)

let of_string ?(file = "<string>") text = of_stream (stream_of_string ~file text)

let of_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  of_stream (stream_of_channel ~file:path ic)
