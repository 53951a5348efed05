"""``repro kernels``: list the bundled workload kernels."""


def add_arguments(parser):
    pass


def run(args):
    """List the bundled workload kernels (name, category, description)."""
    from repro.workloads import all_kernels

    print(f"{'name':14s} {'category':8s} description")
    for kernel in all_kernels():
        print(f"{kernel.name:14s} {kernel.category:8s} {kernel.description}")
    return 0
