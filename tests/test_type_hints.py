"""Every annotation in the package resolves: `typing.get_type_hints` works
on each module, and on each function, class and method defined there."""
import importlib
import inspect
import pkgutil
import typing

import dialoscope


def annotated_objects():
    """(qualified name, object) for every module of the package and every
    function, class and method it defines."""
    for info in pkgutil.iter_modules(dialoscope.__path__):
        module = importlib.import_module(f"dialoscope.{info.name}")
        yield module.__name__, module
        for name, obj in vars(module).items():
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ != module.__name__:
                continue  # imported, checked where it is defined
            yield f"{module.__name__}.{name}", obj
            if not inspect.isclass(obj):
                continue
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{module.__name__}.{name}.{attr}", member


def test_annotations_resolve():
    objects = dict(annotated_objects())
    assert {"dialoscope.corpus._multiwoz_split_ids",
            "dialoscope.analysis.SlotTrace.report_category"} <= objects.keys()
    unresolved = []
    for name, obj in objects.items():
        try:
            typing.get_type_hints(obj)
        except Exception as exc:
            unresolved.append(f"{name}: {type(exc).__name__}: {exc}")
    assert unresolved == []
