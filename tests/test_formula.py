"""The node-class contract of lassosat.formula, checked on every node class.

A node class takes its fields from its own annotations, in order; a
constructor call binds positional, keyword and default arguments alike to
the one interned node; a bad call raises TypeError; nodes are immutable;
and the intern table holds its nodes weakly.
"""

import gc
import weakref

import pytest

from lassosat import formula
from lassosat.formula import _NODES, Atom, BoundedUntil, Formula, Lasts, Next, Somf

NODE_CLASSES = sorted(
    (v for v in vars(formula).values()
     if isinstance(v, type) and issubclass(v, Formula) and v is not Formula),
    key=lambda cls: cls.__name__,
)


def _defaults(cls):
    """Field name -> default, for the fields that have one."""
    return {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}


def _values(cls, tag):
    """Distinct hashable values, one per field (constructors check no types)."""
    return tuple(f"{cls.__name__}.{name}.{tag}" for name in cls._fields)


def test_every_node_class_is_found():
    assert len(NODE_CLASSES) == 41
    assert {Atom, BoundedUntil, Lasts, Next, Somf} <= set(NODE_CLASSES)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_fields_follow_annotation_order(cls):
    assert cls._fields == tuple(cls.__dict__.get("__annotations__", {}))


def test_a_class_without_fields_has_one_node():
    assert formula.TrueF() is formula.TRUE and formula.FalseF() is formula.FALSE


def test_fields_and_defaults_of_some_classes():
    assert Atom._fields == ("name", "args", "kind")
    assert _defaults(Atom) == {"args": (), "kind": "prop"}
    assert BoundedUntil._fields == ("left", "right", "lo", "hi", "variant")
    assert _defaults(BoundedUntil) == {"variant": "ie"}
    assert _defaults(Next) == {}


def test_positional_keyword_and_default_calls_give_one_node():
    assert Atom("p") is Atom("p", ()) is Atom(name="p", kind="prop")
    assert Atom("p") is Atom("p", (), "prop") is Atom(kind="prop", args=(), name="p")
    assert Atom("p", (1,)) is not Atom("p")
    p = Atom("p")
    assert Lasts(p, 3) is Lasts(p, 3, "ee") is Lasts(sub=p, offset=3)
    assert Lasts(p, 3, "ii") is Lasts(p, 3, variant="ii") is not Lasts(p, 3)
    assert Somf(p) is Somf(p, "e") is Somf(sub=p, variant="e")


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_every_way_of_calling_gives_the_interned_node(cls):
    values = _values(cls, "call")
    node = cls(*values)
    assert type(node) is cls
    assert node._values() == values
    assert cls(*values) is node
    assert cls(**dict(zip(cls._fields, values))) is node
    if values:
        first, rest = values[0], dict(zip(cls._fields[1:], values[1:]))
        assert cls(first, **rest) is node
    defaults = _defaults(cls)
    required = values[:len(values) - len(defaults)]
    assert cls._fields[len(required):] == tuple(defaults)
    with_defaults = cls(*required)
    assert with_defaults is cls(*required, *defaults.values())
    assert with_defaults is cls(**dict(zip(cls._fields, required)))
    assert with_defaults._values() == required + tuple(defaults.values())


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_bad_calls_raise_type_error(cls):
    values = _values(cls, "bad")
    with pytest.raises(TypeError):
        cls(*values, "surplus")
    with pytest.raises(TypeError):
        cls(*values, unknown_field=1)
    if values:
        with pytest.raises(TypeError):
            cls(*values, **{cls._fields[0]: values[0]})  # given twice
    required = len(values) - len(_defaults(cls))
    if required:
        with pytest.raises(TypeError):
            cls(*values[:required - 1])
        with pytest.raises(TypeError):
            cls(**dict(zip(cls._fields[1:], values[1:])))


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_nodes_are_immutable(cls):
    node = cls(*_values(cls, "frozen"))
    for name in (*cls._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(node, name, "changed")
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert node._values() == _values(cls, "frozen")


@pytest.mark.parametrize("cls", [cls for cls in NODE_CLASSES if cls._fields],
                         ids=lambda cls: cls.__name__)
def test_an_unreferenced_node_leaves_the_intern_table(cls):
    values = _values(cls, "dies")
    key = (cls, *values)
    node = cls(*values)
    ref = weakref.ref(node)
    assert key in _NODES
    del node
    gc.collect()
    assert ref() is None
    assert key not in _NODES
