"""Set-up probe: import the program and call every job kind and runtime
once. ``env.measure_setup`` runs it in fresh processes; their wall time
is the benchmark's ``setup_s``."""

from checkout import load_program

if __name__ == "__main__":
    load_program()
    import workloads

    workloads.warm_up_all()
