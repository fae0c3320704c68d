from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.4.0",
    description=(
        "Cycle-level reproduction of Talpes & Marculescu, 'Multiple "
        "Speed Pipelines' (ISCA 2005): dual-clock Flywheel core with "
        "Execution Cache vs. a synchronous baseline"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # Dependency-free by design (DESIGN.md), both engines included.
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
