import swarm_eq


def test_public_surface_resolves_and_star_imports():
    assert len(set(swarm_eq.__all__)) == len(swarm_eq.__all__)
    assert [name for name in swarm_eq.__all__ if not hasattr(swarm_eq, name)] == []
    namespace = {}
    exec("from swarm_eq import *", namespace)
    assert set(swarm_eq.__all__) <= set(namespace)
