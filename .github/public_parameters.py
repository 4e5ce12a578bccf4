"""The public parameters of gquot, read with inspect.signature: the count of
public optional parameters (those with a default and no leading underscore)
over the callables in gquot.__all__, then every public parameter of each of
them, required or optional, one callable a line, so a signature that names
one thing twice shows.

    PYTHONPATH=src python .github/public_parameters.py

It reports and does not gate.
"""

import inspect

import gquot

optional = 0
lines = []
for name in gquot.__all__:
    obj = getattr(gquot, name)
    if not callable(obj):
        continue
    params = [p for p in inspect.signature(obj).parameters.values() if not p.name.startswith("_")]
    optional += sum(p.default is not p.empty for p in params)
    lines.append(f"{name}({', '.join(str(p.replace(annotation=p.empty)) for p in params)})")
print(f"public optional parameters: {optional}")
print("public parameters:")
print("```")
print("\n".join(lines))
print("```")
