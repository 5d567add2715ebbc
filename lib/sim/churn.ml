let schedule net rng ~events ~spacing ?kind () =
  if spacing <= 0.0 then invalid_arg "Churn.schedule: spacing <= 0";
  let engine = Network.engine net in
  let failed = ref [] in
  for i = 1 to events do
    let time = float_of_int i *. spacing in
    Engine.schedule engine ~delay:time (fun () ->
        if i mod 2 = 1 then begin
          match Network.fail_random_link net rng ?kind () with
          | Some lid -> failed := lid :: !failed
          | None -> ()
        end
        else begin
          match !failed with
          | lid :: rest ->
            failed := rest;
            Network.set_link_state net lid ~up:true
          | [] -> ()
        end)
  done

let standard net ~seed = schedule net (Pr_util.Rng.derive seed "churn") ~events:6 ~spacing:4.0 ()
