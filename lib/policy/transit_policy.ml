type t = { owner : Pr_topology.Ad.id; terms : Policy_term.t list; bytes : int }

let sum_bytes terms =
  List.fold_left (fun acc term -> acc + Policy_term.advertisement_bytes term) 0 terms

let make owner terms =
  List.iter
    (fun (term : Policy_term.t) ->
      if term.Policy_term.owner <> owner then
        invalid_arg "Transit_policy.make: term owner mismatch")
    terms;
  { owner; terms; bytes = sum_bytes terms }

let no_transit owner = { owner; terms = []; bytes = 0 }

let open_transit owner = make owner [ Policy_term.open_term owner ]

let allows t ctx = List.exists (fun term -> Policy_term.admits term ctx) t.terms

let admitting_term t ctx = List.find_opt (fun term -> Policy_term.admits term ctx) t.terms

let term_count t = List.length t.terms

let advertisement_bytes t = t.bytes
