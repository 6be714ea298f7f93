(** OpenQASM 2.0-style rendering of circuits (output only; useful for
    inspecting benchmark circuits and for interop with other tools). *)

(* Every line is rendered by [render], whatever the sink — a channel
   ([write_instr]), a buffer ([to_string]) or a string
   ([instr_to_string]) — so the three are byte-identical by
   construction.  A line costs no Printf: the whole line of each
   parameter-free single-qubit gate on one of the first [prebuilt]
   qubits is prebuilt, which makes the commonest output line (a
   Clifford+T gate) a single sink write, and other lines take their
   [q[i]] operands from the same text.  The lines live in one string
   because thousands of small strings in the major heap of every
   program linking this module measurably slow unrelated TRASYN
   kernels (a cold MPS chain build ran 15 % slower).  They are built at
   module initialization and never mutated, so any number of domains
   may render at once. *)

let prebuilt = 1024

(* Position of a parameter-free single-qubit gate among the prebuilt
   lines, or -1. *)
let fixed_index = function
  | Qgate.H -> 0
  | Qgate.X -> 1
  | Qgate.Y -> 2
  | Qgate.Z -> 3
  | Qgate.S -> 4
  | Qgate.Sdg -> 5
  | Qgate.T -> 6
  | Qgate.Tdg -> 7
  | Qgate.Rx _ | Qgate.Ry _ | Qgate.Rz _ | Qgate.U3 _ | Qgate.CX | Qgate.CZ | Qgate.Swap
  | Qgate.Ccx ->
      -1

(* Line [k] — gate [k / prebuilt] on qubit [k mod prebuilt], e.g.
   "sdg q[5];\n" — is [text.[start.(k), start.(k + 1))]. *)
let text, start =
  let fixed = [| Qgate.H; Qgate.X; Qgate.Y; Qgate.Z; Qgate.S; Qgate.Sdg; Qgate.T; Qgate.Tdg |] in
  let n = Array.length fixed * prebuilt in
  let buf = Buffer.create (n * 12) and start = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    start.(k) <- Buffer.length buf;
    Buffer.add_string buf (Qgate.to_string fixed.(k / prebuilt));
    Buffer.add_string buf " q[";
    Buffer.add_string buf (string_of_int (k mod prebuilt));
    Buffer.add_string buf "];\n"
  done;
  start.(n) <- Buffer.length buf;
  (Buffer.contents buf, start)

let add_all add sink s = add sink s 0 (String.length s)

(* [add sink s off len] appends [s.[off, off + len)]; the sink is
   passed alongside rather than closed over, so rendering a prebuilt
   line allocates nothing. *)
let render add sink (i : Circuit.instr) =
  let qs = i.Circuit.qubits in
  let k = fixed_index i.Circuit.gate in
  if k >= 0 && Array.length qs = 1 && qs.(0) >= 0 && qs.(0) < prebuilt then begin
    let l = (k * prebuilt) + qs.(0) in
    add sink text start.(l) (start.(l + 1) - start.(l))
  end
  else begin
    add_all add sink (Qgate.to_string i.Circuit.gate);
    add_all add sink " ";
    for j = 0 to Array.length qs - 1 do
      let q = qs.(j) in
      if j > 0 then add_all add sink ",";
      (* "q[i]" is the H line of qubit i without "h " and ";\n". *)
      if q >= 0 && q < prebuilt then add sink text (start.(q) + 2) (start.(q + 1) - start.(q) - 4)
      else add_all add sink ("q[" ^ string_of_int q ^ "]")
    done;
    add_all add sink ";\n"
  end

let instr_to_string i =
  let buf = Buffer.create 32 in
  render Buffer.add_substring buf i;
  (* Without the line's newline. *)
  Buffer.sub buf 0 (Buffer.length buf - 1)

let header n_qubits = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" ^ string_of_int n_qubits ^ "];\n"
let write_header oc n_qubits = output_string oc (header n_qubits)
let write_instr oc i = render output_substring oc i

let to_string (c : Circuit.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (header c.Circuit.n_qubits);
  List.iter (render Buffer.add_substring buf) c.Circuit.instrs;
  Buffer.contents buf
