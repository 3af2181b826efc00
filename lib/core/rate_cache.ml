let register_counters () = ()
