"""Delay-loop reservoir computing for RF burst classification.

A single physical-style nonlinear node plus a delay line emulates a
recurrent network by time multiplexing; splitting the delay line into
parallel shorter loops buys back latency at equal readout size.  This
package provides the loop simulator, loop topologies, input-domain
transforms, a closed-form ridge readout, hyperparameter search, a
synthetic RF dataset generator, and a config-driven experiment CLI.
"""

__version__ = "0.1.0"
