(** Step 0 of TRASYN: the table of all Clifford+T operators (up to global
    phase) with at most a given number of T gates, each paired with a
    T-optimal gate sequence.

    Instead of the paper's enumerate-and-deduplicate sweep (O(4^#T) with
    trace-value duplicate checks on a GPU), we enumerate Matsumoto–Amano
    normal forms
        [ε | T] (HT | SHT)* C,   C one of the 24 Cliffords,
    which are in bijection with Clifford+T operators mod phase, so the
    enumeration is linear in the output count 24·(3·2^#T − 2), and the
    sequences produced are T-optimal by construction.  Words share
    suffixes: a word with k T gates is its first block (T, HT or SHT)
    consed onto the word of the (k−1)-T entry with the same Clifford, so
    each entry allocates at most three list cells; the words are the
    ones whole-prefix appends spell, and only memory differs.  A gate
    set whose descriptor asks for [Bfs] gets its table from a generic
    closure instead ([closure]); [get_for] enumerates either on first
    use.  The table doubles as step 3's lookup of shorter
    equivalents.

    Layout.  The table is a handful of flat arrays indexed by entry:
    - [words]: the suffix-shared word;
    - [info]: the Clifford count shifted left by 3, or'd with the phase
      j (0..7) for which ω^j·u is the operator's canonical form
      ({!Exact_u.canonical_phase});
    - [keys]: that canonical key ({!Exact_u.canonical_key}, 17 ints),
      packed at 7 bits per component, components biased by 64, so the
      packed range is [−64, 63]: components 0–8 in [keys.(2i)], 9–16 in
      [keys.(2i + 1)].  The widest component grows about √2 every two
      levels (2 at depth 4, 7 at 10, 15 at 14, 22 at 16), so the range
      holds every depth a table fits in memory; [seek] refuses a key
      outside it rather than wrap it;
    - [slots]: one open-addressing index over both packed ints, linear
      probing, holding entry index + 1 (0 is empty), at most 3/4 full.
    An entry's T count is its level, read from [offsets].  At depth 10
    an entry keeps 11.8 live words: 7 of word (the array slot and two
    list cells on average), 2 of key, 1 of info and 1.8 of index (131,072
    slots, 56 % full).  No [Exact_u.t], [Mat2.t], key array or bucket is
    kept per entry.

    The matrices that TRASYN's sites read are two row-major planes,
    [re] and [im], 4 floats per entry.  The build leaves them empty: the
    first reader ({!planes}) fills them from the keys and phases and
    publishes them with one [Atomic.compare_and_set].  Domains that race
    compute identical floats, so either may win.  Eager planes would put
    a depth-1 table's arrays past the minor heap's 256-word limit on
    every build. *)

type planes = { re : float array; im : float array }

type t = {
  max_t : int;
  offsets : int array;  (** offsets.(k) = first index with T count >= k *)
  words : Ctgate.t list array;
  info : int array;  (** (Clifford count lsl 3) lor phase *)
  keys : int array;  (** 2 per entry, packed canonical key *)
  slots : int array;  (** entry index + 1, or 0; length a power of two *)
  planes : planes option Atomic.t;
}

let theoretical_count m = 24 * ((3 * (1 lsl m)) - 2)

(* The deepest table whose key width is stated (22 at depth 16, inside
   the packed range), at 4.7 M entries; a depth beyond it is refused
   before the builder sizes its arrays (75.5 M entries at depth 20). *)
let max_depth = 16

let check_depth what max_t =
  if max_t < 0 then invalid_arg (what ^ ": negative depth");
  if max_t > max_depth then
    invalid_arg (Printf.sprintf "%s: depth %d above the maximum %d" what max_t max_depth)

let size t = Array.length t.words
let max_t t = t.max_t
let offset t k = t.offsets.(k)
let word t i = t.words.(i)
let ccount t i = t.info.(i) lsr 3
let phase t i = t.info.(i) land 7

let tcount t i =
  if i < 0 || i >= size t then invalid_arg "Ma_table.tcount: index out of range";
  let k = ref 0 in
  while t.offsets.(!k + 1) <= i do
    incr k
  done;
  !k

(* ---- Packed keys and the index ---- *)

let fits (key : int array) =
  let ok = ref true in
  for c = 0 to Exact_u.key_size - 1 do
    let v = key.(c) in
    if v < -64 || v > 63 then ok := false
  done;
  !ok

(* Components first .. first + count − 1 of a key, 7 bits each, the
   first lowest. *)
let pack (key : int array) first count =
  let w = ref 0 in
  for c = first + count - 1 downto first do
    w := (!w lsl 7) lor (key.(c) + 64)
  done;
  !w

let[@inline] field w f = ((w lsr (7 * f)) land 127) - 64

(* Both packed ints, mixed; the index masks the low bits. *)
let[@inline] hash k0 k1 =
  let h = (k0 * 0x2545F4914F6CDD1D) + k1 in
  let h = (h lxor (h lsr 31)) * 0x1CE4E5B97F4A7C15 in
  h lxor (h lsr 29)

(* The slot that holds key (k0, k1), or the empty slot where it would
   go. *)
let slot slots keys k0 k1 =
  let mask = Array.length slots - 1 in
  let s = ref (hash k0 k1 land mask) in
  let e = ref (Array.unsafe_get slots !s) in
  while !e <> 0 && not (keys.((2 * !e) - 2) = k0 && keys.((2 * !e) - 1) = k1) do
    s := (!s + 1) land mask;
    e := Array.unsafe_get slots !s
  done;
  !s

(* Slots for [capacity] entries: a power of two at least 4/3 of it. *)
let make_slots capacity =
  let n = ref 1 in
  while 3 * !n < 4 * capacity do
    n := 2 * !n
  done;
  Array.make !n 0

let find_key t key =
  if Array.length key <> Exact_u.key_size || not (fits key) then -1
  else
    let k0 = pack key 0 9 and k1 = pack key 9 8 in
    t.slots.(slot t.slots t.keys k0 k1) - 1

type probe = int array

let probe () = Array.make Exact_u.key_size 0

let find t probe u =
  ignore (Exact_u.canonical_key_into probe u : int);
  find_key t probe

(* Fields f .. f + 3 of a packed int as a coefficient. *)
let coeff w f : Zomega.Native.t =
  { x0 = field w f; x1 = field w (f + 1); x2 = field w (f + 2); x3 = field w (f + 3) }

(* Entry i's canonical form, unpacked: k and a, b from its first int, c
   and d from its second. *)
let canonical t i =
  let k0 = t.keys.(2 * i) and k1 = t.keys.((2 * i) + 1) in
  { Exact_u.k = field k0 0; a = coeff k0 1; b = coeff k0 5; c = coeff k1 0; d = coeff k1 4 }

(* −j mod 8: ω to this power times the canonical form is the entry's
   operator exactly as the enumeration multiplied it out. *)
let unphase t i = (8 - phase t i) land 7
let unitary t i = Exact_u.mul_phase (canonical t i) (unphase t i)

(* ---- Building ---- *)

(* A table under construction, filled in entry order.  [seek] packs an
   operator's canonical key and finds its slot, and says whether the key
   is new; [insert] then files that key as the next entry.  The fields
   after [n] hold what [seek] found. *)
type builder = {
  b_words : Ctgate.t list array;
  b_info : int array;
  b_keys : int array;
  b_slots : int array;
  scratch : int array;
  mutable n : int;
  mutable slot : int;
  mutable k0 : int;
  mutable k1 : int;
  mutable j : int;
}

let builder capacity =
  {
    b_words = Array.make capacity [];
    b_info = Array.make capacity 0;
    b_keys = Array.make (2 * capacity) 0;
    b_slots = make_slots capacity;
    scratch = probe ();
    n = 0;
    slot = 0;
    k0 = 0;
    k1 = 0;
    j = 0;
  }

let seek b u =
  let j = Exact_u.canonical_key_into b.scratch u in
  if not (fits b.scratch) then
    invalid_arg "Ma_table: a canonical key component leaves [-64, 63], the packed 7-bit range";
  let k0 = pack b.scratch 0 9 and k1 = pack b.scratch 9 8 in
  let s = slot b.b_slots b.b_keys k0 k1 in
  b.slot <- s;
  b.k0 <- k0;
  b.k1 <- k1;
  b.j <- j;
  b.b_slots.(s) = 0

(* Call only after a [seek] that returned true; returns the new index. *)
let insert b ~word ~ccount =
  let i = b.n in
  b.b_words.(i) <- word;
  b.b_info.(i) <- (ccount lsl 3) lor b.j;
  b.b_keys.(2 * i) <- b.k0;
  b.b_keys.((2 * i) + 1) <- b.k1;
  b.b_slots.(b.slot) <- i + 1;
  b.n <- i + 1;
  i

let finish b ~max_t ~offsets =
  let n = b.n in
  let trim a len = if Array.length a = len then a else Array.sub a 0 len in
  {
    max_t;
    offsets;
    words = trim b.b_words n;
    info = trim b.b_info n;
    keys = trim b.b_keys (2 * n);
    slots = b.b_slots;
    planes = Atomic.make None;
  }

(* The first block of a normal form by root index: T, HT, SHT.  Blocks
   1 and 2 are also the syllables HT and SHT that follow it. *)
let blocks = Ctgate.[| [ T ]; [ H; T ]; [ S; H; T ] |]

(* Entry (k, p, c), the level-k prefix p times Clifford c, sits at
   offsets.(k) + 24·p + c.  Level-k prefix p is its root block
   p lsr (k − 1) followed by one syllable per lower bit, most
   significant first, so the rest of its word with the same Clifford is
   an entry of level k − 1: the Clifford's own word at k = 1, else the
   prefix whose root is the syllable of bit k − 2 and whose lower bits
   are p's.  The level-(k − 1) prefixes not rooted at T are the
   contiguous range from 2^(k − 2), so that prefix is 2^(k − 2) plus
   p's low k − 1 bits.  Each word is its block consed onto that
   entry's word, its Clifford count the block's plus that entry's, and
   its exact unitary, which only its key keeps, the prefix's product
   times the Clifford's word, gate by gate.  Normal forms are unique,
   so every [seek] finds a new key. *)
let build max_t =
  check_depth "Ma_table.build" max_t;
  Obs.span "cliffordt.table.build" @@ fun () ->
  Obs.set_span_attr "max_t" (string_of_int max_t);
  let b = builder (theoretical_count max_t) in
  Array.iter
    (fun (c : Clifford.element) ->
      let word = c.Clifford.word in
      if seek b c.Clifford.u then ignore (insert b ~word ~ccount:(Ctgate.clifford_count word) : int))
    Clifford.elements;
  (* The prefix products of the level below. *)
  let below = ref [| Exact_u.identity |] in
  for k = 1 to max_t do
    let tail_base = if k = 1 then 0 else theoretical_count (k - 2) in
    let products =
      Array.init (3 lsl (k - 1)) (fun p ->
          if k = 1 then Exact_u.of_seq blocks.(p)
          else List.fold_left Exact_u.mul_gate !below.(p lsr 1) blocks.(1 + (p land 1)))
    in
    Array.iteri
      (fun p prefix ->
        let block = blocks.(p lsr (k - 1)) in
        let block_ccount = Ctgate.clifford_count block in
        let tail = if k = 1 then 0 else (1 lsl (k - 2)) + (p land ((1 lsl (k - 1)) - 1)) in
        Array.iteri
          (fun c (cl : Clifford.element) ->
            let rest = tail_base + (Clifford.count * tail) + c in
            if seek b (List.fold_left Exact_u.mul_gate prefix cl.Clifford.word) then
              ignore
                (insert b ~word:(block @ b.b_words.(rest)) ~ccount:(block_ccount + (b.b_info.(rest) lsr 3))
                  : int))
          Clifford.elements)
      products;
    below := products
  done;
  assert (b.n = theoretical_count max_t);
  finish b ~max_t ~offsets:(Array.init (max_t + 2) (fun k -> if k = 0 then 0 else theoretical_count (k - 1)))

(* The generic closure, for any sub-alphabet of Clifford+T: Dijkstra
   with the non-Clifford count as the distance.  Level 0 is the Clifford
   closure of the identity; level k + 1 seeds every level-k operator,
   in order, with each non-Clifford generator and re-closes under the
   Cliffords, first in first out.  The state space at depth m is finite,
   so this terminates, and level order makes every word
   non-Clifford-minimal.  Operators are admitted in table order, so the
   index doubles as the visited set.  A candidate costs one gate
   product, one canonical key and one probe; only an admitted operator
   gets a word, its parent's reversed word with the new gate consed on,
   and the words are reversed once at the end.  Every operator it
   admits has T count at most [max_t], so {!theoretical_count} bounds
   the table. *)
let closure (gs : Gateset.t) max_t =
  Obs.span "cliffordt.table.build" @@ fun () ->
  Obs.set_span_attr "max_t" (string_of_int max_t);
  let cliffords, non_cliffords = List.partition Ctgate.is_clifford gs.Gateset.generators in
  let b = builder (theoretical_count max_t) in
  let q = Queue.create () in
  let level = ref [] in
  let step (i, u) g =
    let u = Exact_u.mul_gate u g in
    if seek b u then begin
      let ccount = (b.b_info.(i) lsr 3) + Ctgate.clifford_count [ g ] in
      let admitted = insert b ~word:(g :: b.b_words.(i)) ~ccount in
      level := (admitted, u) :: !level;
      Queue.add (admitted, u) q
    end
  in
  (* Close the level's seeds under the Cliffords; what was admitted, in
     order, is level k. *)
  let offsets = Array.make (max_t + 2) 0 in
  let close_level k =
    while not (Queue.is_empty q) do
      List.iter (step (Queue.pop q)) cliffords
    done;
    offsets.(k + 1) <- b.n;
    let admitted = List.rev !level in
    level := [];
    admitted
  in
  ignore (seek b Exact_u.identity : bool);
  ignore (insert b ~word:[] ~ccount:0 : int);
  level := [ (0, Exact_u.identity) ];
  Queue.add (0, Exact_u.identity) q;
  let seeds = ref (close_level 0) in
  for k = 1 to max_t do
    List.iter (fun node -> List.iter (step node) non_cliffords) !seeds;
    seeds := close_level k
  done;
  for i = 0 to b.n - 1 do
    b.b_words.(i) <- List.rev b.b_words.(i)
  done;
  if Gateset.full gs && b.n <> theoretical_count max_t then
    failwith
      (Printf.sprintf
         "Ma_table.get_for: gate set %S at max_t=%d enumerated %d operators, closed form says %d"
         gs.Gateset.name max_t b.n (theoretical_count max_t));
  finish b ~max_t ~offsets

(* ---- Planes, filled on first read ---- *)

(* Entry i's matrix at 4i: [Exact_u.to_mat2 (unitary t i)]'s floats,
   without the phased unitary or a [Mat2.t]. *)
let fill_planes t =
  let n = size t in
  let re = Array.create_float (4 * n) and im = Array.create_float (4 * n) in
  for i = 0 to n - 1 do
    Exact_u.mat_into re im (4 * i) (canonical t i) (unphase t i)
  done;
  { re; im }

let planes t =
  match Atomic.get t.planes with
  | Some p -> p
  | None ->
      let p = fill_planes t in
      if Atomic.compare_and_set t.planes None (Some p) then p
      else Option.get (Atomic.get t.planes)

let mat t i =
  let { re; im } = planes t in
  let z j = { Cplx.re = re.((4 * i) + j); im = im.((4 * i) + j) } in
  Mat2.make (z 0) (z 1) (z 2) (z 3)

(* ---- One table per gate set and depth ---- *)

(* Enumerated on first use as the gate set's descriptor says.  The cache
   is consulted from planner worker domains, so it is mutex-guarded;
   holding the lock across the enumeration also means concurrent
   requests for the same table build it once, not N times. *)
let cache : (string * int, t) Hashtbl.t = Hashtbl.create 4
let cache_lock = Mutex.create ()

let enumerate ~gate_set max_t =
  match Gateset.find gate_set with
  | None ->
      failwith
        (Printf.sprintf "Ma_table.get_for: unknown gate set %S (known: %s)" gate_set
           (String.concat ", " (Gateset.names ())))
  | Some gs -> (
      match gs.Gateset.enumeration with
      | Gateset.Ma_normal_form -> build max_t
      | Gateset.Bfs -> closure gs max_t)

let get_for ~gate_set max_t =
  check_depth "Ma_table.get_for" max_t;
  Mutex.lock cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_lock)
    (fun () ->
      match Hashtbl.find_opt cache (gate_set, max_t) with
      | Some t -> t
      | None ->
          let t = enumerate ~gate_set max_t in
          Hashtbl.add cache (gate_set, max_t) t;
          t)

let get max_t = get_for ~gate_set:Gateset.default.Gateset.name max_t
