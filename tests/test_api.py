"""Public surface: which callables take a ``guard`` keyword."""

import inspect

import pdzf

# A caller sets the guard of these: the CLI's PDZF_GUARD_N reaches the
# oracle and fort enumeration, and the solve entry points are the way to
# run the exact solver past its default vertex limit.  Every other
# function enforces its module constant.
GUARDED = {
    "brute_force_min",
    "enumerate_forts",
    "restricted_pd_number",
    "restricted_zf_number",
    "tree_split",
    "tree_pd_parallel",
}


def _parameters(obj) -> set[str]:
    # Exception classes expose no signature; they take no keywords either.
    if not callable(obj) or isinstance(obj, type) and issubclass(obj, BaseException):
        return set()
    return set(inspect.signature(obj).parameters)


def test_guard_keyword_only_where_a_caller_sets_it():
    guarded = {name for name in pdzf.__all__ if "guard" in _parameters(getattr(pdzf, name))}
    assert guarded == GUARDED
