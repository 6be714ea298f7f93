(** Per-site tensor data for TRASYN's MPS.

    A site's physical index ranges over all canonical Clifford+T
    operators within a T-count range (step 0's table), and each index
    carries its 2×2 matrix.  For the sampler's hot loop the matrices are
    the table's own planes (row-major, 4 complex entries per entry),
    shared, not copied: the table is sorted by T count, so the range is
    the contiguous run of entries from [first]. *)

type t = {
  count : int;
  first : int;  (** table index of physical index 0 *)
  re : float array;  (** the table's planes; physical index s at 4·(first + s) *)
  im : float array;
  table : Ma_table.t;
}

(* A site covering T counts lo..hi of the given table. *)
let of_table table ~lo ~hi =
  let first = Ma_table.offset table lo in
  let { Ma_table.re; im } = Ma_table.planes table in
  { count = Ma_table.offset table (hi + 1) - first; first; re; im; table }

(* One shared counter for all three accessors: they are the bank's only
   read path, so this is "how often did synthesis consult a sitebank".
   An atomic add is noise next to the float work per lookup. *)
let c_lookups = Obs.counter "sitebank.lookups"

let matrix bank s =
  Obs.incr c_lookups;
  Ma_table.mat bank.table (bank.first + s)

let sequence bank s =
  Obs.incr c_lookups;
  Ma_table.word bank.table (bank.first + s)

let tcount bank s =
  Obs.incr c_lookups;
  Ma_table.tcount bank.table (bank.first + s)
