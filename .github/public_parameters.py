"""The public parameters of gquot, read with inspect.signature: the count of
public optional parameters (those with a default and no leading underscore)
over the callables in gquot.__all__, the same count over the public methods
(functions, class methods and static methods without a leading underscore,
defined on the class itself) of the classes in gquot.__all__, then every
public parameter of each callable, required or optional, one callable a
line, so a signature that names one thing twice shows.

    PYTHONPATH=src python .github/public_parameters.py

It reports and does not gate.
"""

import inspect

import gquot


def public_params(obj) -> list[inspect.Parameter]:
    return [p for p in inspect.signature(obj).parameters.values() if not p.name.startswith("_")]


def optional_count(params) -> int:
    return sum(p.default is not p.empty for p in params)


optional = method_optional = 0
lines = []
for name in gquot.__all__:
    obj = getattr(gquot, name)
    if not callable(obj):
        continue
    params = public_params(obj)
    optional += optional_count(params)
    lines.append(f"{name}({', '.join(str(p.replace(annotation=p.empty)) for p in params)})")
    if inspect.isclass(obj):
        for attr in vars(obj):
            member = getattr(obj, attr)
            if not attr.startswith("_") and (inspect.isfunction(member) or inspect.ismethod(member)):
                method_optional += optional_count(public_params(member))
print(f"public optional parameters: {optional}")
print(f"public method optional parameters: {method_optional}")
print("public parameters:")
print("```")
print("\n".join(lines))
print("```")
