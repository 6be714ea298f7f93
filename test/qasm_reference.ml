(* The substring-based QASM line parser that the in-place lexer of
   [Qasm_reader] replaced, kept as a test oracle: every line must parse
   to the same event, or fail with the same line, column and message.
   The one change is that a malformed numeral raises [Parse_error] at
   its first character instead of escaping as [Failure]. *)

let fail file line col msg = raise (Qasm_reader.Parse_error (file, line, col, msg))

(* Arithmetic expressions in gate arguments: numbers, pi, + - * / and
   parentheses (recursive descent over a token list).  Tokens carry the
   0-based offset of their first character so errors deep inside an
   expression still point at the exact column. *)
type token = Num of float | Pi | Plus | Minus | Star | Slash | LParen | RParen

let tokenize_expr file line col s =
  let n = String.length s in
  let tokens = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    let push t = tokens := (t, !i) :: !tokens; incr i in
    if c = ' ' || c = '\t' then incr i
    else if c = '+' then push Plus
    else if c = '-' then push Minus
    else if c = '*' then push Star
    else if c = '/' then push Slash
    else if c = '(' then push LParen
    else if c = ')' then push RParen
    else if !i + 1 < n && String.sub s !i 2 = "pi" then begin
      tokens := (Pi, !i) :: !tokens;
      i := !i + 2
    end
    else if (c >= '0' && c <= '9') || c = '.' then begin
      let j = ref !i in
      while
        !j < n
        && ((s.[!j] >= '0' && s.[!j] <= '9') || s.[!j] = '.' || s.[!j] = 'e' || s.[!j] = 'E'
           || ((s.[!j] = '+' || s.[!j] = '-') && !j > !i && (s.[!j - 1] = 'e' || s.[!j - 1] = 'E')))
      do
        incr j
      done;
      let lit = String.sub s !i (!j - !i) in
      let x =
        try float_of_string lit
        with Failure _ -> fail file line (col + !i) ("malformed number " ^ lit)
      in
      tokens := (Num x, !i) :: !tokens;
      i := !j
    end
    else fail file line (col + !i) (Printf.sprintf "unexpected character %c in expression" c)
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

let eval_expr file line col s =
  parse_expr file line col (col + String.length s) (tokenize_expr file line col s)

(* "q[3]" -> 3 (single register named q); [col] points at the operand. *)
let parse_qubit file line col s =
  match String.index_opt s '[' with
  | Some i when String.length s > 0 && s.[String.length s - 1] = ']' ->
      let idx = String.sub s (i + 1) (String.length s - i - 2) in
      (try int_of_string idx
       with _ -> fail file line (col + i + 1) ("bad qubit index " ^ idx))
  | _ -> fail file line col ("expected q[i], got " ^ s)

let gate_of_name file line col name args =
  match (name, args) with
  | "h", [] -> Qgate.H
  | "x", [] -> Qgate.X
  | "y", [] -> Qgate.Y
  | "z", [] -> Qgate.Z
  | "s", [] -> Qgate.S
  | "sdg", [] -> Qgate.Sdg
  | "t", [] -> Qgate.T
  | "tdg", [] -> Qgate.Tdg
  | "rx", [ a ] -> Qgate.Rx a
  | "ry", [ a ] -> Qgate.Ry a
  | "rz", [ a ] -> Qgate.Rz a
  | ("u" | "u3"), [ a; b; c ] -> Qgate.U3 (a, b, c)
  | "u1", [ a ] -> Qgate.Rz a
  | "cx", [] -> Qgate.CX
  | "cz", [] -> Qgate.CZ
  | "swap", [] -> Qgate.Swap
  | ("ccx" | "toffoli"), [] -> Qgate.Ccx
  | _ ->
      fail file line col
        (Printf.sprintf "unsupported gate %s/%d" name (List.length args))

(* ------------------------------------------------------------------ *)
(* Shared statement parser                                            *)
(* ------------------------------------------------------------------ *)

type event = Qasm_reader.event = Qreg of int | Instr of Circuit.instr

(* Mutable reader state shared by the whole-file and streaming paths:
   validation (arity, range, declaration-before-use) happens statement
   by statement in both. *)
type state = { mutable n_qubits : int; mutable saw_qreg : bool }

let new_state () = { n_qubits = 0; saw_qreg = false }

let is_ws c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

(* Pieces of s.[from..upto) split on [sep], each trimmed, paired with
   the 0-based offset of the piece's first post-trim character; empty
   pieces are dropped. *)
let split_pieces sep s from upto =
  let pieces = ref [] in
  let start = ref from in
  let flush stop =
    let b = ref !start and e = ref stop in
    while !b < !e && is_ws s.[!b] do incr b done;
    while !e > !b && is_ws s.[!e - 1] do decr e done;
    if !e > !b then pieces := (String.sub s !b (!e - !b), !b) :: !pieces
  in
  for i = from to upto - 1 do
    if s.[i] = sep then begin
      flush i;
      start := i + 1
    end
  done;
  flush upto;
  List.rev !pieces

(* Parse one source line (without its newline).  Returns [None] for
   lines that contribute nothing to the circuit (blank, comment,
   OPENQASM/include/barrier/creg/measure). *)
let parse_line st file line raw : event option =
  let len = String.length raw in
  (* The statement ends at the first "//" comment. *)
  let limit =
    let rec find i =
      if i + 1 >= len then len
      else if raw.[i] = '/' && raw.[i + 1] = '/' then i
      else find (i + 1)
    in
    find 0
  in
  (* Trim to [s, e): surrounding whitespace (including a CR from CRLF
     line endings) and the trailing ';' dropped.  Offsets stay relative
     to [raw] so columns are exact. *)
  let s = ref 0 and e = ref limit in
  while !s < !e && is_ws raw.[!s] do incr s done;
  while !e > !s && is_ws raw.[!e - 1] do decr e done;
  if !e > !s && raw.[!e - 1] = ';' then begin
    decr e;
    while !e > !s && is_ws raw.[!e - 1] do decr e done
  end;
  if !e = !s then None
  else begin
    let col = !s + 1 in
    let has kw =
      !e - !s >= String.length kw && String.sub raw !s (String.length kw) = kw
    in
    if has "OPENQASM" || has "include" || has "barrier" || has "creg" || has "measure"
    then None
    else if has "qreg" then begin
      let sub = String.sub raw !s (!e - !s) in
      match (String.index_opt sub '[', String.index_opt sub ']') with
      | Some i, Some j when j > i -> (
          match int_of_string_opt (String.trim (String.sub sub (i + 1) (j - i - 1))) with
          | Some nq when nq > 0 ->
              st.saw_qreg <- true;
              st.n_qubits <- nq;
              Some (Qreg nq)
          | _ -> fail file line (col + i) "malformed qreg")
      | _ -> fail file line col "malformed qreg"
    end
    else begin
      (* gate[(args)] q[i] [, q[j] ...] *)
      let find_from p pred =
        let rec go i = if i >= !e then None else if pred raw.[i] then Some i else go (i + 1) in
        go p
      in
      let op = find_from !s (fun c -> c = '(') in
      let first_ws = find_from !s is_ws in
      let name_end, args, operands_from =
        match (op, first_ws) with
        | Some op, ws when (match ws with None -> true | Some w -> op < w) ->
            (* Arguments run to the matching close; arguments may nest
               parentheses but operands never contain one, so the last
               ')' of the statement is the close. *)
            let close =
              let rec go i =
                if i <= op then fail file line (op + 1) "unbalanced ("
                else if raw.[i] = ')' then i
                else go (i - 1)
              in
              go (!e - 1)
            in
            let args =
              split_pieces ',' raw (op + 1) close
              |> List.map (fun (piece, off) -> eval_expr file line (off + 1) piece)
            in
            (op, args, close + 1)
        | _, Some ws -> (ws, [], ws + 1)
        | _, None ->
            fail file line col ("malformed statement: " ^ String.sub raw !s (!e - !s))
      in
      let name = String.lowercase_ascii (String.sub raw !s (name_end - !s)) in
      let qubits =
        split_pieces ',' raw operands_from !e
        |> List.map (fun (piece, off) -> (parse_qubit file line (off + 1) piece, off + 1))
      in
      (* Range and arity problems are caught here, per statement, so
         the message points at the offending operand instead of
         surfacing later as an Invalid_argument from Circuit. *)
      List.iter
        (fun (q, qcol) ->
          if not st.saw_qreg then fail file line col "gate before qreg declaration"
          else if q < 0 || q >= st.n_qubits then
            fail file line qcol
              (Printf.sprintf "qubit %d out of range (qreg has %d)" q st.n_qubits))
        qubits;
      let gate = gate_of_name file line col name args in
      let instr =
        try Circuit.instr gate (Array.of_list (List.map fst qubits))
        with Invalid_argument msg -> fail file line col msg
      in
      Some (Instr instr)
    end
  end

(* Whole text, line by line, as the reader's [of_string] drains it: a
   final line without a newline still counts. *)
let of_string ?(file = "<string>") text =
  let st = new_state () in
  let lines = String.split_on_char '\n' text in
  let n = List.length lines in
  let instrs = ref [] in
  List.iteri
    (fun k raw ->
      if k < n - 1 || raw <> "" then
        match parse_line st file (k + 1) raw with
        | Some (Instr i) -> instrs := i :: !instrs
        | Some (Qreg _) | None -> ())
    lines;
  Circuit.make st.n_qubits (List.rev !instrs)
