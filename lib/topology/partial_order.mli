(** Partial orderings over ADs and the ECMA "up/down" rule (paper §5.1.1).

    The ECMA/NIST proposal prevents distance-vector loops in cyclic
    topologies by imposing a globally coordinated partial ordering on
    ADs; every link is labelled up or down, and once a route (or packet)
    has traversed a down link it may never traverse another up link.
    This module derives such an ordering from the topology hierarchy,
    labels links, checks path legality under the up/down rule, and
    decides whether an arbitrary set of ordering constraints can be
    embedded in a single partial order (the expressiveness question of
    experiment E3). *)

type t
(** A total preorder on ADs represented by integer ranks; smaller rank
    means higher in the hierarchy (closer to the backbone). *)

val of_levels : Graph.t -> t
(** Ranking by hierarchy level: backbone above regional above metro
    above campus. Lateral links join ADs of equal rank. *)

val rank : t -> Ad.id -> int

type direction =
  | Up  (** toward smaller rank *)
  | Down  (** toward larger rank *)
  | Level  (** between equal ranks; ECMA treats these as down in both
               directions, the conservative labelling that preserves
               loop-freedom *)

val direction : t -> from_ad:Ad.id -> to_ad:Ad.id -> direction

val is_valley_free : t -> Path.t -> bool
(** True when the path obeys the up/down rule: a (possibly empty)
    ascending phase followed by a (possibly empty) descending phase —
    after the first Down or Level step no Up step may occur. *)

val valley_free_violation : t -> Path.t -> (Ad.id * Ad.id) option
(** The first offending step, for diagnostics. *)

(** {2 Embeddability of constraint sets}

    ECMA expresses policy by choosing the ordering. A set of policies
    is expressible only if the ordering constraints they induce are
    simultaneously satisfiable, i.e. form a DAG (paper §5.1.1: "there
    may not be a single partial ordering that simultaneously expresses
    the policies of all ADS"). *)

type constraint_ = { above : Ad.id; below : Ad.id }
(** Requirement that [above] be strictly higher than [below]. *)

val embeddable : n:int -> constraint_ list -> int array option
(** [embeddable ~n cs] returns a witness ranking over [n] ADs
    satisfying every constraint, or [None] when the constraints are
    cyclic and hence unembeddable in any single partial order. *)
