(** Inter-AD links.

    A link connects two ADs. Its [kind] records its role in the
    hierarchical model of paper §2.1: the hierarchy proper, lateral
    links between ADs of the same level, and bypass links that skip
    levels (e.g. a campus connected directly to a backbone). *)

type id = int

type kind =
  | Hierarchical  (** parent/child link in the hierarchy *)
  | Lateral  (** same-level shortcut (e.g. regional–regional) *)
  | Bypass  (** level-skipping shortcut (e.g. campus–backbone) *)

type t = {
  id : id;
  a : Ad.id;  (** in hierarchical links, [a] is the upper (provider) side *)
  b : Ad.id;
  kind : kind;
  cost : int;  (** administrative metric, >= 1 *)
  delay : float;  (** propagation delay in simulated time units, > 0 *)
}

val make : id:id -> a:Ad.id -> b:Ad.id -> ?cost:int -> ?delay:float -> kind -> t
(** @raise Invalid_argument on a self loop, a cost below 1, or a delay
    that is not finite and > 0. *)

val other_end : t -> Ad.id -> Ad.id
(** [other_end l x] is the endpoint of [l] that is not [x].
    @raise Invalid_argument if [x] is not an endpoint. *)

val connects : t -> Ad.id -> Ad.id -> bool
(** True when the link joins the two given ADs, in either order. *)

val kind_to_string : kind -> string
