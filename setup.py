"""Package metadata for the GIANT reproduction (src/ layout).

``pip install -e .`` makes ``import repro`` work without PYTHONPATH hacks;
the only runtime dependency is numpy (the nn subpackage is a from-scratch
numpy autograd stack).
"""

from setuptools import find_packages, setup

setup(
    name="repro-giant",
    version="1.0.0",
    description=(
        "Reproduction of GIANT: Scalable Creation of a Web-scale Ontology "
        "(SIGMOD 2020) with an indexed ontology store and serving layer"
    ),
    long_description=(
        "A full reproduction of the GIANT attention-ontology system: "
        "GCTSP-Net phrase mining, ontology construction from click logs, "
        "an indexed OntologyStore with incremental delta updates, and an "
        "online serving layer for document tagging and query understanding."
    ),
    long_description_content_type="text/plain",
    license="MIT",
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "pytest-timeout",
                             "hypothesis"]},
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
    ],
)
