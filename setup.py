from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    description=(
        "BISRAMGEN reproduction: a physical design tool for "
        "built-in self-repairable static RAMs"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
    entry_points={
        "console_scripts": ["bisramgen = repro.cli:main"],
    },
)
