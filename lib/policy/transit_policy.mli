(** A transit AD's complete policy: the set of Policy Terms it
    advertises.

    Semantics (paper §5.4.1): a flow may cross the AD between two given
    neighbors iff at least one of the AD's PTs admits the crossing. An
    AD with no PTs never carries transit traffic — that is precisely a
    stub (or multihomed stub) AD. *)

type t = {
  owner : Pr_topology.Ad.id;
  terms : Policy_term.t list;
  bytes : int;  (** cached {!advertisement_bytes}, computed at construction *)
}

val make : Pr_topology.Ad.id -> Policy_term.t list -> t
(** @raise Invalid_argument if some term's owner differs. *)

val no_transit : Pr_topology.Ad.id -> t
(** The stub policy: no PTs, no transit for anyone (paper §2.1). *)

val open_transit : Pr_topology.Ad.id -> t
(** The least restrictive policy: one open PT. *)

val allows : t -> Policy_term.transit_ctx -> bool

val admitting_term : t -> Policy_term.transit_ctx -> Policy_term.t option
(** The first PT that admits the crossing — what a source cites in an
    ORWG route setup packet. *)

val term_count : t -> int

val advertisement_bytes : t -> int
(** Total bytes to advertise every PT of this AD. O(1): the sum is
    computed once when the policy is built, not re-folded per
    advertisement. *)
