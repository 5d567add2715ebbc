(** Fixed-capacity bitsets over small integers.

    Used throughout the routing protocols to represent sets of AD
    identifiers compactly (policy-term membership tests, flooding
    "already seen" marks, reachability vectors). *)

type t

val create : int -> t
(** [create n] is the empty set over universe [\[0, n)]. *)

val capacity : t -> int

val copy : t -> t

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val cardinal : t -> int

val is_empty : t -> bool

val clear : t -> unit

val of_list : int -> int list -> t
(** [of_list n xs] builds a set over universe [n] containing [xs]. *)

val union_into : t -> t -> unit
(** [union_into dst src] adds every member of [src] to [dst]. The two
    sets must have equal capacity. *)

val union_compl_into : t -> t -> unit
(** [union_compl_into dst src] adds to [dst] every member of the
    universe that is {e not} in [src] (i.e. [dst := dst ∪ ¬src]). The
    two sets must have equal capacity. Used when folding complemented
    ([Except]-style) predicates into an accumulator set. *)

val inter_into : t -> t -> unit
(** [inter_into dst src] removes from [dst] everything not in [src]. *)

val subset : t -> t -> bool
(** [subset a b] is true when every member of [a] is in [b]. *)

val equal : t -> t -> bool

val hash : t -> int
(** A hash of the set's packed bytes, consistent with {!equal}: one
    pass over [capacity / 8] bytes, no allocation. *)
