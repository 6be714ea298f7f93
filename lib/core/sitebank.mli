(** Per-site tensor data for TRASYN's MPS: the physical index ranges
    over the step-0 table entries within a T-count range, with the 2×2
    matrices as flat float arrays for the sampler's hot loop.  Every
    bank shares the table's {!Ma_table.planes} instead of copying them:
    physical index s is table entry [first + s]. *)

type t = {
  count : int;
  first : int;  (** table index of physical index 0 *)
  re : float array;
      (** the table's planes: physical index s row-major at
          [4·(first + s) .. 4·(first + s) + 3]; read-only *)
  im : float array;
  table : Ma_table.t;
}

val of_table : Ma_table.t -> lo:int -> hi:int -> t
val matrix : t -> int -> Mat2.t
val sequence : t -> int -> Ctgate.t list
val tcount : t -> int -> int
