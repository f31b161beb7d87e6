"""songpipe: deterministic symbolic backbone for compositional song generation.

The package models monophonic vocal scores, derives the time-varying
conditioning signals an accompaniment generator consumes (beat/downbeat
activation, chord chromagrams, keys, structure, pitch contour), plans
bounded generation windows, harmonizes melodies, renders a deterministic
stand-in accompaniment for closed-loop testing, and evaluates the results.
"""

__version__ = "0.1.0"
