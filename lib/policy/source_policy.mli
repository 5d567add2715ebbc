(** Route selection criteria of a source AD (paper §2.3).

    Where transit policies say who may cross an AD, the source's policy
    says which routes the source is willing to use: ADs it refuses to
    traverse, ADs it prefers, and a hop budget. Under source routing
    the source can both express and enforce these privately; under
    hop-by-hop routing it depends on other ADs' choices — the
    asymmetry quantified by experiments E6 and E9. *)

type t = {
  owner : Pr_topology.Ad.id;
  avoid : Pr_topology.Ad.id list;  (** never traverse these ADs *)
  prefer : Pr_topology.Ad.id list;  (** discount routes through these ADs *)
  max_hops : int option;
}

val make :
  owner:Pr_topology.Ad.id ->
  ?avoid:Pr_topology.Ad.id list ->
  ?prefer:Pr_topology.Ad.id list ->
  ?max_hops:int ->
  unit ->
  t

val unrestricted : Pr_topology.Ad.id -> t

val permits : t -> Pr_topology.Path.t -> bool
(** The path avoids every AD in [avoid] (endpoints are exempt: a source
    cannot avoid itself or its destination) and respects [max_hops]. *)

val score : t -> Pr_topology.Graph.t -> Pr_topology.Path.t -> float
(** Selection score, lower is better: path cost, minus a fixed bonus of
    0.5 per distinct preferred AD traversed. Returns [infinity] for
    paths the policy does not permit or that are invalid in the
    graph. *)

val best : t -> Pr_topology.Graph.t -> Pr_topology.Path.t list -> Pr_topology.Path.t option
(** Minimum-score permitted path; deterministic tie-break on the path
    itself. *)
