"""Rotation-by-rotation references for the two cycle questions, asked of
the normal-form engine: the first rotation of a simple multi-vertex cycle
that survives modulo the ideal (theorem mode's loop-supported hypothesis),
and the first such cycle all of whose rotations survive (the Koszul dual's
wrap-alive cycle).  :mod:`pacqa.center` reads both off each cycle's
monomial pairs instead."""
from __future__ import annotations

from pacqa.ideal import IdealSpec
from pacqa.normalform import monomial_in_ideal
from pacqa.quiver import multi_vertex_cycles


def rotations(cycle: tuple[str, ...]):
    return [cycle[shift:] + cycle[:shift] for shift in range(len(cycle))]


def surviving_multi_vertex_cycle(spec: IdealSpec):
    for cycle in multi_vertex_cycles(spec.quiver):
        for rotation in rotations(cycle):
            if not monomial_in_ideal(spec, rotation):
                return rotation
    return None


def wrap_alive_cycle(spec: IdealSpec):
    for cycle in multi_vertex_cycles(spec.quiver):
        if not any(monomial_in_ideal(spec, r) for r in rotations(cycle)):
            return cycle
    return None
