(** Policy Terms (paper §4.2, §5.4.1, after Clark's RFC 1102).

    A Policy Term (PT) is the unit in which a transit AD advertises the
    conditions under which traffic may cross it. PTs can constrain the
    source, destination, previous and next AD of the path, the QOS and
    user class of the traffic, the time of day, and whether
    authentication is required. An AD's transit policy is a set of PTs
    ({!Transit_policy}); a flow may cross the AD if at least one PT
    admits it. *)

type ad_pred =
  | Any
  | Only of Pr_topology.Ad.id array
      (** sorted ascending; admits only listed ADs *)
  | Except of Pr_topology.Ad.id array
      (** sorted ascending; admits all but listed ADs *)

val sort_pred : ad_pred -> ad_pred
(** Sorted copy of the predicate (identity for [Any]). Callers that
    build terms by record update instead of {!make} must sort their
    payloads — admission binary-searches the arrays. *)

type t = {
  owner : Pr_topology.Ad.id;  (** the advertising transit AD *)
  sources : ad_pred;
  destinations : ad_pred;
  prev_hops : ad_pred;  (** constraint on the AD the packet arrives from *)
  next_hops : ad_pred;  (** constraint on the AD the packet departs to *)
  qos : Qos.t list;  (** admitted service classes (non-empty) *)
  ucis : Uci.t list;  (** admitted user classes (non-empty) *)
  hours : (int * int) option;
      (** admitted half-open hour window [(h1, h2)] with [h1 <> h2];
          wraps past midnight when [h1 > h2]; [None] = always *)
  auth_required : bool;
}

val open_term : Pr_topology.Ad.id -> t
(** The least restrictive PT: everyone may cross, any QOS/UCI, always. *)

val make :
  owner:Pr_topology.Ad.id ->
  ?sources:ad_pred ->
  ?destinations:ad_pred ->
  ?prev_hops:ad_pred ->
  ?next_hops:ad_pred ->
  ?qos:Qos.t list ->
  ?ucis:Uci.t list ->
  ?hours:int * int ->
  ?auth_required:bool ->
  unit ->
  t
(** Unspecified fields default to the open term's. [qos]/[ucis] must be
    non-empty. Predicate id arrays are sorted here so every later
    membership test can binary-search. A degenerate hour window
    [Some (h, h)] would admit nothing at any hour — a PT that can never
    fire — so it is rejected ([Invalid_argument]); callers wanting
    "always" pass [None], callers wanting "never" advertise no PT. *)

type transit_ctx = {
  flow : Flow.t;
  prev : Pr_topology.Ad.id option;  (** [None] when the owner is first after the source *)
  next : Pr_topology.Ad.id option;  (** [None] when the owner delivers to the destination *)
}
(** What a policy gateway sees when a packet crosses its AD. [prev] and
    [next] are the neighboring ADs on the path ([None] only at path
    endpoints, which never need transit permission). *)

val admits : t -> transit_ctx -> bool
(** Does this PT admit the crossing? A [None] prev/next satisfies any
    predicate (there is no hop to constrain). *)

val hour_in_window : (int * int) option -> int -> bool
(** [None] admits every hour; [Some (h1, h2)] admits the half-open
    window [\[h1, h2)], wrapping past midnight when [h1 > h2]. The
    degenerate [Some (h, h)] is the empty window (admits no hour);
    {!make} refuses to build such a term. *)

val advertisement_bytes : t -> int
(** Size of this PT in a link-state advertisement under the byte model
    of {!Pr_proto.Cost_model} (fixed header plus 2 bytes per carried
    AD id). *)

val pp : Format.formatter -> t -> unit
