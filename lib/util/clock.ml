let now () = Unix.gettimeofday ()

let expired deadline = deadline < infinity && now () > deadline
