(** Version-keyed store of compiled transit policies.

    One store per {!Config.t}: each AD's term list is compiled
    ({!Compiled.compile}) lazily on first probe and cached until the
    policy mutates. [version] bumps on every mutation so downstream
    route caches (the version-keyed synthesis caches of [lib/lshbh] /
    [lib/orwg], PR 1) can key their entries on
    [(db_version, policy_version)] and drop stale routes without
    diffing terms. *)

type t

val create : Config.t -> t
(** A private store over a snapshot of the configuration's transit
    policies. Use this when the holder mutates policies (ORWG route
    withdrawal installs override policies): mutations stay local to
    this store and never leak into the shared {!of_config} store. *)

val of_config : Config.t -> t
(** The shared store for this configuration (physical-equality memo of
    the most recent configuration). All read-only consumers — route
    validation, forwarding checks, chaos baseline and faulted runs of
    the same scenario — get the same store, so each AD's policy
    compiles exactly once per process per configuration. *)

val n : t -> int

val version : t -> int
(** Bumped on every {!set_transit}. A fresh store is version 0. *)

val transit : t -> Pr_topology.Ad.id -> Transit_policy.t

val compiled : t -> Pr_topology.Ad.id -> Compiled.t
(** The AD's compiled policy at the current version (compiled on first
    call, cached after). *)

val precompile : t -> unit
(** Compile every AD's terms eagerly, so no lazy compilation runs
    later — e.g. to time compilation apart from the searches that
    would otherwise trigger it. *)

val set_transit : t -> Pr_topology.Ad.id -> Transit_policy.t -> unit
(** Replace an AD's transit policy, invalidate its compilation and
    bump the store version. *)

val allows : t -> Pr_topology.Ad.id -> Policy_term.transit_ctx -> bool
(** [allows t ad ctx] = [Compiled.allows (compiled t ad) ctx]. *)

val admitting_term :
  t -> Pr_topology.Ad.id -> Policy_term.transit_ctx -> Policy_term.t option
