(** Administrative Domains.

    An AD is the unit of inter-domain routing throughout this library
    (paper §4.1): routes are sequences of AD identifiers and intra-AD
    structure is deliberately invisible. *)

type id = int
(** Dense identifiers in [\[0, n)] within a topology. *)

type klass =
  | Stub  (** no transit for anyone (paper §2.1) *)
  | Multihomed
      (** stub with more than one inter-AD connection, still refusing
          all transit traffic *)
  | Transit  (** primary function is transit service (backbone, regional) *)
  | Hybrid  (** end-system access plus limited transit *)

type level =
  | Backbone
  | Regional
  | Metro
  | Campus
      (** position in the hierarchical topology of paper §2.1; lateral and
          bypass links cut across this hierarchy *)

type t = { id : id; name : string; klass : klass; level : level }

val make : id:id -> name:string -> klass:klass -> level:level -> t

val is_transit_capable : t -> bool
(** True for [Transit] and [Hybrid] ADs: only these may appear in the
    interior of an inter-AD route. *)

val klass_to_string : klass -> string

val level_to_string : level -> string

val level_rank : level -> int
(** 0 for [Backbone] growing downward to 3 for [Campus]; used to derive
    the provider/customer partial ordering. *)

val equal : t -> t -> bool
